(* Metric collection and the benchmark's output: one human-readable line
   per metric (name, value, unit, sample count) and, last, a single-line
   JSON object for machine readers. *)

type metric = { name : string; unit_ : string; value : float; samples : int }

type t = {
  mutable metrics : metric list;  (* reversed *)
  mutable notes : (string * string) list;  (* reversed *)
  mutable correct : bool;
  mutable problems : string list;  (* reversed *)
  mutable attempted : int;
  mutable failed : int;
}

let create () =
  { metrics = []; notes = []; correct = true; problems = []; attempted = 0; failed = 0 }

let add t ?(samples = 1) name value =
  t.metrics <- { name; unit_ = Catalog.unit_of name; value; samples } :: t.metrics

let note t key value = t.notes <- (key, value) :: t.notes

(* An output check failed: the run is reported incorrect (and the
   benchmark exits non-zero), never silently dropped. *)
let check t ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        t.correct <- false;
        t.problems <- msg :: t.problems
      end)
    fmt

let count t ~attempted ~failed =
  t.attempted <- t.attempted + attempted;
  t.failed <- t.failed + failed

let metrics t = List.rev t.metrics

let find t name =
  List.find_opt (fun m -> m.name = name) t.metrics |> Option.map (fun m -> m.value)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Every digit the float carries. *)
let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_lines t =
  List.iter (fun (k, v) -> Printf.printf "# %s: %s\n" k v) (List.rev t.notes);
  List.iter
    (fun m ->
      Printf.printf "%-34s %16.6f %-8s n=%d\n" m.name m.value m.unit_ m.samples)
    (metrics t);
  List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) (List.rev t.problems)

(* The last stdout line: only the [keep] metrics, in that order.  A
   missing or non-finite value is a bug in the benchmark: report it as a
   failed check rather than printing a number nobody measured. *)
let json_line t ~keep =
  let fields =
    List.filter_map
      (fun name ->
        match List.find_opt (fun m -> m.name = name) t.metrics with
        | Some m when Float.is_finite m.value ->
          Some
            (Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name)
               (json_float m.value) (json_string m.unit_))
        | Some _ ->
          check t false "metric %s is not finite" name;
          None
        | None ->
          check t false "metric %s was not measured" name;
          None)
      keep
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    t.correct (max 1 t.attempted) t.failed (String.concat ", " fields)
