open Sim

type t = {
  rt : Runtime.t;
  uid : int;
  real : Par.Backend.sem;
  mutable version : int;  (* acquisitions *)
  releases : Runtime.source Queue.t;  (* unmatched release events, FIFO *)
  mutable last_event : Runtime.source option;  (* total-order chain *)
}

(* Bookkeeping under [Runtime.guarded]: acquirers on different domains
   race for the [releases] queue. *)

let create rt name permits =
  let t =
    {
      rt;
      uid = Runtime.fresh_resource_id rt name;
      real = Par.Backend.sem (Runtime.backend rt) permits;
      version = 0;
      releases = Queue.create ();
      last_event = None;
    }
  in
  Runtime.register_versioned rt t.uid
    ~get:(fun () -> t.version)
    ~set:(fun v -> t.version <- v);
  t

let uid t = t.uid
let remember t src = t.last_event <- Some src

let acquire_srcs t =
  if Runtime.partial_order t.rt then
    Option.to_list (Queue.take_opt t.releases)
  else Option.to_list t.last_event

(* Version checks are skipped in partial-order mode: two acquirers whose
   matched releases have both replayed may legitimately complete in either
   order. *)
let check_sem_version t e =
  if not (Runtime.partial_order t.rt) then
    Runtime.check_version t.rt e ~actual:t.version

let record_acquire t ~kind =
  Runtime.guarded t.rt (fun () ->
      let v = t.version in
      t.version <- v + 1;
      let src =
        Runtime.record t.rt ~kind ~resource:t.uid ~version:v (acquire_srcs t)
      in
      remember t src)

let rec acquire t =
  match Runtime.effective_mode t.rt with
  | Runtime.Native ->
    t.real.s_acquire ();
    Runtime.observe_opaque t.rt
  | Runtime.Record ->
    t.real.s_acquire ();
    record_acquire t ~kind:Event.Sem_acquire
  | Runtime.Replay -> (
    match Runtime.take t.rt ~kinds:[ Event.Sem_acquire ] ~resource:t.uid with
    | `Record_now -> acquire t
    | `Event e ->
      t.real.s_acquire ();
      Runtime.guarded t.rt (fun () ->
          check_sem_version t e;
          t.version <- t.version + 1;
          ignore (Queue.take_opt t.releases);
          remember t (Runtime.replay_source t.rt e));
      Runtime.complete t.rt e)

let rec try_acquire t =
  match Runtime.effective_mode t.rt with
  | Runtime.Native ->
    Runtime.observe_opaque t.rt;
    t.real.s_try_acquire ()
  | Runtime.Record ->
    if t.real.s_try_acquire () then begin
      record_acquire t ~kind:Event.Try_ok;
      true
    end
    else begin
      Runtime.guarded t.rt (fun () ->
          let src =
            Runtime.record t.rt ~kind:Event.Try_fail ~resource:t.uid
              ~version:t.version
              (if Runtime.partial_order t.rt then []
               else Option.to_list t.last_event)
          in
          remember t src);
      false
    end
  | Runtime.Replay -> (
    match
      Runtime.take t.rt ~kinds:[ Event.Try_ok; Event.Try_fail ] ~resource:t.uid
    with
    | `Record_now -> try_acquire t
    | `Event e -> (
      match e.Event.kind with
      | Event.Try_ok ->
        while not (t.real.s_try_acquire ()) do
          Engine.yield ()
        done;
        Runtime.guarded t.rt (fun () ->
            check_sem_version t e;
            t.version <- t.version + 1;
            ignore (Queue.take_opt t.releases);
            remember t (Runtime.replay_source t.rt e));
        Runtime.complete t.rt e;
        true
      | _ ->
        Runtime.guarded t.rt (fun () ->
            remember t (Runtime.replay_source t.rt e));
        Runtime.complete t.rt e;
        false))

let rec release t =
  match Runtime.effective_mode t.rt with
  | Runtime.Native -> t.real.s_release ()
  | Runtime.Record ->
    Runtime.guarded t.rt (fun () ->
        let src =
          Runtime.record t.rt ~kind:Event.Sem_release ~resource:t.uid
            ~version:t.version
            (if Runtime.partial_order t.rt then []
             else Option.to_list t.last_event)
        in
        Queue.push src t.releases;
        remember t src);
    t.real.s_release ()
  | Runtime.Replay -> (
    match Runtime.take t.rt ~kinds:[ Event.Sem_release ] ~resource:t.uid with
    | `Record_now -> release t
    | `Event e ->
      t.real.s_release ();
      Runtime.guarded t.rt (fun () ->
          let src = Runtime.replay_source t.rt e in
          Queue.push src t.releases;
          remember t src);
      Runtime.complete t.rt e)
