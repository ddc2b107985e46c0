(* Reading the layers from outside: registry counters summed over their
   labels, histogram totals, and the app-factory wrapper that times each
   [execute] call.  Nothing here reaches into the libraries' internals. *)

module R = Rex_core

(* Registry totals by "subsystem.name": counters and gauges (summed,
   and the largest gauge), histogram sums, over every label set. *)
type snapshot = {
  counters : (string, float) Hashtbl.t;
  hsum : (string, float) Hashtbl.t;
  gmax : (string, float) Hashtbl.t;
}

let snapshot obs =
  let s =
    {
      counters = Hashtbl.create 64;
      hsum = Hashtbl.create 16;
      gmax = Hashtbl.create 16;
    }
  in
  let add tbl k v =
    Hashtbl.replace tbl k (v +. Option.value (Hashtbl.find_opt tbl k) ~default:0.)
  in
  Obs.Registry.fold (Obs.registry obs) ~init:() ~f:(fun () key inst ->
      let k = key.Obs.Registry.subsystem ^ "." ^ key.Obs.Registry.name in
      match inst with
      | Obs.Registry.Counter c -> add s.counters k (float_of_int (Obs.Metric.value c))
      | Obs.Registry.Gauge g ->
        add s.counters k (Obs.Metric.get g);
        Hashtbl.replace s.gmax k
          (Float.max (Obs.Metric.get g)
             (Option.value (Hashtbl.find_opt s.gmax k) ~default:0.))
      | Obs.Registry.Histogram h -> add s.hsum k (Obs.Histogram.sum h));
  s

let get tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:0.
let counter s k = get s.counters k
let gauge_max s k = get s.gmax k
let hist_sum s k = get s.hsum k

(* [b - a] for a counter. *)
let delta a b k = counter b k -. counter a k

(* Merged quantile of every histogram series named [k] (an upper bound
   within one bucket: used for per-layer readings only). *)
let hist_quantile obs k q =
  let merged = Obs.Histogram.create () in
  Obs.Registry.fold (Obs.registry obs) ~init:() ~f:(fun () key inst ->
      match inst with
      | Obs.Registry.Histogram h
        when key.Obs.Registry.subsystem ^ "." ^ key.Obs.Registry.name = k ->
        Obs.Histogram.merge merged h
      | _ -> ());
  if Obs.Histogram.count merged = 0 then 0. else Obs.Histogram.quantile merged q

(* Wall seconds [f] spends running, excluding the time its fiber is
   suspended in the backend: every effect [f] performs is intercepted,
   the clock is paused, the effect is re-performed to the real handler
   and the clock resumes when control comes back.  [Engine.work] only
   advances virtual time, so it is paused too. *)
let timed f =
  let open Effect.Deep in
  let acc = ref 0. in
  let t = ref (Stats.wall ()) in
  let stop () = acc := !acc +. (Stats.wall () -. !t) in
  let r =
    match_with f ()
      {
        retc = (fun v -> stop (); v);
        exnc = (fun e -> stop (); raise e);
        effc =
          (fun (type a) (eff : a Effect.t) ->
            Some
              (fun (k : (a, _) continuation) ->
                stop ();
                match Effect.perform eff with
                | v ->
                  t := Stats.wall ();
                  continue k v
                | exception e ->
                  t := Stats.wall ();
                  discontinue k e));
      }
  in
  (r, !acc)

(* One execute call as seen by the wrapper. *)
type exec = {
  x_node : int;
  x_request : string;
  x_t0 : float;  (* virtual seconds *)
  x_t1 : float;
  x_wall : float;  (* wall seconds running, suspensions excluded *)
}

(* Wrap an app factory so every [execute] reports an {!exec}.  Without
   [on_exec] the factory is returned untouched, so untraced runs pay
   nothing. *)
let wrap_factory ?on_exec (f : R.App.factory) : R.App.factory =
  match on_exec with
  | None -> f
  | Some report ->
    fun api ->
      let app = f api in
      let node = R.Api.node api in
      {
        app with
        R.App.execute =
          (fun ~request ->
            let t0 = Sim.Engine.now () in
            let r, wall = timed (fun () -> app.R.App.execute ~request) in
            report
              { x_node = node; x_request = request; x_t0 = t0; x_t1 = Sim.Engine.now (); x_wall = wall };
            r);
      }

let gc_heap_peak_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* VmHWM of this process, for the notes (Linux; "?" elsewhere). *)
let rss_peak_mb () =
  try
    let ic = open_in "/proc/self/status" in
    let rec find () =
      match input_line ic with
      | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf l "VmHWM: %d kB" (fun kb -> Printf.sprintf "%.1f" (float_of_int kb /. 1024.))
      | _ -> find ()
    in
    let r = try find () with End_of_file -> "?" in
    close_in ic;
    r
  with Sys_error _ -> "?"
