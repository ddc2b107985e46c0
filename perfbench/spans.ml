(* The benchmark's own spans, recorded around its calls into each layer
   and keyed by the session envelope's (client, seq): kept in memory and
   written once, when the run ends, as a Chrome trace_event file. *)

type span = {
  name : string;
  id : string;  (* "client.seq" — shared by every span of one request *)
  parent : string;  (* name of the causing span, "" for a root *)
  node : int;
  t0 : float;  (* virtual seconds *)
  t1 : float;
}

(* Spans past this many are counted in [dropped], not kept. *)
let limit = 400_000

type t = { mutable spans : span list; mutable n : int; mutable dropped : int }

let create () = { spans = []; n = 0; dropped = 0 }

let add t ~name ~id ?(parent = "") ~node ~t0 ~t1 () =
  if t.n < limit then begin
    t.spans <- { name; id; parent; node; t0; t1 } :: t.spans;
    t.n <- t.n + 1
  end
  else t.dropped <- t.dropped + 1

let dropped t = t.dropped

let write t ~path =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then output_char oc ',';
      Printf.fprintf oc
        "\n{\"name\":%s,\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":%d,\"tid\":0,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%s,\"parent\":%s}}"
        (Report.json_string s.name) s.node (s.t0 *. 1e6)
        ((s.t1 -. s.t0) *. 1e6)
        (Report.json_string s.id) (Report.json_string s.parent))
    (List.rev t.spans);
  output_string oc "\n]}\n";
  close_out oc

(* Self time of each span name: its duration minus the part of its
   interval covered by its children (spans of the same request whose
   [parent] names it).  Returns (name, total self seconds, count). *)
let self_times t =
  let by_id = Hashtbl.create 4096 in
  List.iter (fun s -> Hashtbl.add by_id s.id s) t.spans;
  let acc = Hashtbl.create 16 in
  let bump name d =
    let s, n = Option.value (Hashtbl.find_opt acc name) ~default:(0., 0) in
    Hashtbl.replace acc name (s +. d, n + 1)
  in
  let ids = Hashtbl.fold (fun id _ l -> id :: l) by_id [] |> List.sort_uniq compare in
  List.iter
    (fun id ->
      let spans = Hashtbl.find_all by_id id in
      List.iter
        (fun p ->
          let kids =
            List.filter_map
              (fun c ->
                if c.parent = p.name && c != p then
                  let a = Float.max c.t0 p.t0 and b = Float.min c.t1 p.t1 in
                  if b > a then Some (a, b) else None
                else None)
              spans
            |> List.sort compare
          in
          (* Union length of the clipped child intervals. *)
          let covered, _ =
            List.fold_left
              (fun (cov, hi) (a, b) ->
                let a = Float.max a hi in
                if b > a then (cov +. (b -. a), b) else (cov, hi))
              (0., neg_infinity) kids
          in
          bump p.name (p.t1 -. p.t0 -. covered))
        spans)
    ids;
  Hashtbl.fold (fun name (s, n) l -> (name, s, n) :: l) acc []
  |> List.sort compare
