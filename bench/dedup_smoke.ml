(* Dedup-under-faults smoke: drive a non-idempotent counter through each
   stack (Rex, SMR, Eve) from retrying clients while the network drops
   messages and the leader is killed mid-run, then check the exactly-once
   contract: every acknowledged request executed once, so the responses
   of n "INC" requests are a permutation of 1..n and the final counter is
   exactly n on every surviving replica.

   Prints one row per stack (requests, retry hops, dup_hits, evictions,
   sessions, final count) and exits non-zero on any double execution,
   lost request, or divergence — CI runs `dedup --quick`. *)

open Sim
module R = Rex_core

(* The counter must be guarded by a Rex lock: on the Rex stack requests
   execute concurrently and the recorded lock order is what makes replay
   (and hence the response values) deterministic.  SMR and Eve run the
   same factory through the native synchronization path. *)
let counter_factory () : R.App.factory =
 fun api ->
  let n = ref 0 in
  let lock = R.Api.lock api "ctr" in
  {
    R.App.name = "ctr";
    execute =
      (fun ~request:_ ->
        Rexsync.Lock.with_lock lock (fun () ->
            incr n;
            string_of_int !n));
    query = (fun ~request:_ -> string_of_int !n);
    write_checkpoint = (fun sink -> Codec.write_uvarint sink !n);
    read_checkpoint = (fun src -> n := Codec.read_uvarint src);
    digest = (fun () -> string_of_int !n);
  }

type row = {
  stack : string;
  total : int;
  completed : int;
  exactly_once : bool;
  dup_hits : int;
  evictions : int;
  sessions : int;
  final : string;
}

let mk_row ~stack ~total ~results ~dup_hits ~evictions ~sessions ~final =
  let values =
    List.filter_map (Option.map int_of_string) !results |> List.sort compare
  in
  let exactly_once =
    List.length !results = total
    && values = List.init total (fun i -> i + 1)
    && final = string_of_int total
  in
  {
    stack;
    total;
    completed = List.length values;
    exactly_once;
    dup_hits = dup_hits ();
    evictions = evictions ();
    sessions = sessions ();
    final;
  }

(* Four fibers share one client (and thus one session identity) and
   drain the request list with generous retries.  With [history] the
   calls are recorded for the linearizability check (--check). *)
let drive ~eng ~node ~cl ?history ~total () =
  let results = ref [] and remaining = ref total in
  let pending = ref (List.init total (fun i -> i)) in
  let call () =
    match history with
    | None -> R.Client.call ~retries:2000 cl "INC"
    | Some h ->
      Check.History.record h ~client:(R.Client.client_id cl) ~request:"INC"
        (fun () -> R.Client.call ~retries:2000 cl "INC")
  in
  for _ = 1 to 4 do
    ignore
      (Engine.spawn eng ~node ~name:"dedup-client" (fun () ->
           let rec loop () =
             match !pending with
             | [] -> ()
             | _ :: rest ->
               pending := rest;
               let resp = call () in
               results := resp :: !results;
               decr remaining;
               loop ()
           in
           loop ()))
  done;
  (results, remaining)

(* The --check verdict: the recorded history must linearize against the
   counter spec.  The dedup smoke's own permutation check looks at final
   values only; this one also constrains every intermediate response. *)
let lin_verdict ~stack h =
  Check.History.resolve h;
  let res = Check.Lin.check Check.Spec.counter (Check.History.entries h) in
  (match res.Check.Lin.verdict with
  | Check.Lin.Linearizable -> ()
  | Check.Lin.Non_linearizable w ->
    Harness.fail "dedup --check (%s): history NOT linearizable: %s" stack
      (String.concat "; " w)
  | Check.Lin.Limit ->
    Harness.fail "dedup --check (%s): checker ran out of budget" stack);
  Printf.printf "   %-6s %s\n%!" stack
    (Format.asprintf "%a" Check.Lin.pp_result res)

let pump eng remaining ~deadline =
  let rec go () =
    Engine.run ~until:(Engine.clock eng +. 0.5) eng;
    if !remaining > 0 && Engine.clock eng < deadline then go ()
  in
  go ()

let rex_run ~total ~seed ~check =
  let cluster =
    R.Cluster.create ~seed
      (R.Config.make ~workers:4 ~replicas:[ 0; 1; 2 ] ())
      (counter_factory ())
  in
  R.Cluster.start cluster;
  let primary = R.Cluster.await_primary cluster in
  let eng = R.Cluster.engine cluster in
  let net = R.Cluster.net cluster in
  let history =
    if not check then None
    else begin
      let h = Check.History.create eng in
      Array.iter
        (fun s -> Check.History.wire h [ R.Server.frontend s ])
        (R.Cluster.servers cluster);
      Some h
    end
  in
  Net.set_drop_probability net 0.08;
  let results, remaining =
    drive ~eng ~node:(R.Cluster.client_node cluster)
      ~cl:(R.Cluster.client cluster) ?history ~total ()
  in
  Engine.run ~until:(Engine.clock eng +. 0.5) eng;
  R.Cluster.crash cluster (R.Server.node primary);
  pump eng remaining ~deadline:(Engine.clock eng +. 180.);
  Net.set_drop_probability net 0.;
  pump eng remaining ~deadline:(Engine.clock eng +. 90.);
  R.Cluster.check_no_divergence cluster;
  R.Cluster.run_for cluster 1.0;
  let servers = Array.to_list (R.Cluster.servers cluster) in
  let live =
    List.filter (fun s -> Engine.node_alive eng (R.Server.node s)) servers
  in
  Option.iter (fun h -> lin_verdict ~stack:"rex" h) history;
  let sum f = List.fold_left (fun a s -> a + f (R.Server.session_table s)) 0 in
  mk_row ~stack:"rex" ~total ~results
    ~dup_hits:(fun () -> sum R.Session.Table.dup_hits servers)
    ~evictions:(fun () -> sum R.Session.Table.evictions servers)
    ~sessions:(fun () ->
      List.fold_left
        (fun a s -> max a (R.Session.Table.sessions (R.Server.session_table s)))
        0 servers)
    ~final:
      (match live with
      | s :: _ -> R.Server.query s "GET"
      | [] -> "no-live-replica")

(* SMR and Eve: the registry's standard deployment.  Every request
   shares one conflict key, so Eve batches never overlap a client's
   retries (SMR ignores the oracle). *)
let ordered_run kind ~total ~seed ~check =
  let stack = Check.Stacks.name kind in
  let d =
    Check.Stacks.deploy ~seed ~conflict:(fun _ -> [ "k" ]) kind
      (R.Config.make ~workers:4 ~replicas:Check.Stacks.replicas ())
      (counter_factory ())
  in
  let eng = d.Check.Stacks.eng and net = d.Check.Stacks.net in
  let all = Array.to_list d.Check.Stacks.servers in
  let history =
    if not check then None
    else begin
      let h = Check.History.create eng in
      Check.History.wire h (List.map Smr.frontend all);
      Some h
    end
  in
  let leader =
    match Check.Stacks.leader d with
    | Some s -> s
    | None -> failwith (stack ^ ": no leader elected")
  in
  Net.set_drop_probability net 0.08;
  let node = Check.Stacks.client_node in
  let cl = R.Client.create d.Check.Stacks.rpc ~me:node ~replicas:Check.Stacks.replicas in
  let results, remaining = drive ~eng ~node ~cl ?history ~total () in
  Engine.run ~until:(Engine.clock eng +. 0.5) eng;
  Engine.crash_node eng (Smr.node leader);
  pump eng remaining ~deadline:(Engine.clock eng +. 180.);
  Net.set_drop_probability net 0.;
  pump eng remaining ~deadline:(Engine.clock eng +. 90.);
  Engine.run ~until:(Engine.clock eng +. 2.) eng;
  Option.iter (fun h -> lin_verdict ~stack h) history;
  let sum f = List.fold_left (fun a s -> a + f (Smr.session_table s)) 0 all in
  mk_row ~stack ~total ~results
    ~dup_hits:(fun () -> sum R.Session.Table.dup_hits)
    ~evictions:(fun () -> sum R.Session.Table.evictions)
    ~sessions:(fun () ->
      List.fold_left
        (fun a s -> max a (R.Session.Table.sessions (Smr.session_table s)))
        0 all)
    ~final:
      (match Check.Stacks.live d with
      | s :: _ -> Smr.query s "GET"
      | [] -> "no-live-replica")

let run ?(quick = false) ?(check = false) () =
  let total = if quick then 40 else 200 in
  print_endline "";
  print_endline
    "== Exactly-once under faults (8% drops + leader kill, retrying \
     clients) ==";
  if check then
    print_endline "   (--check: histories recorded, linearizability asserted)";
  Printf.printf "%-6s %9s %10s %9s %10s %9s %8s  %s\n" "stack" "requests"
    "completed" "dup_hits" "evictions" "sessions" "final" "verdict";
  let rows =
    [
      rex_run ~total ~seed:4242 ~check;
      ordered_run Check.Stacks.Smr ~total ~seed:4243 ~check;
      ordered_run Check.Stacks.Eve ~total ~seed:4244 ~check;
    ]
  in
  let ok = ref true in
  List.iter
    (fun r ->
      if not r.exactly_once then ok := false;
      if r.dup_hits = 0 then ok := false;
      Printf.printf "%-6s %9d %10d %9d %10d %9d %8s  %s\n" r.stack r.total
        r.completed r.dup_hits r.evictions r.sessions r.final
        (if r.exactly_once && r.dup_hits > 0 then "exactly-once"
         else "DOUBLE-EXECUTION"))
    rows;
  if not !ok then
    Harness.fail
      "dedup smoke FAILED: a retried request was re-executed (or no \
       duplicate was ever produced to intercept)"
