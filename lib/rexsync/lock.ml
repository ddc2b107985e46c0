open Sim

type t = {
  rt : Runtime.t;
  uid : int;
  real : Par.Backend.mutex;
  mutable version : int;  (* successful acquisitions *)
  mutable last_release : Runtime.source option;
  mutable last_acquire : Runtime.source option;
  mutable last_event : Runtime.source option;  (* total-order mode chain *)
  mutable failed_tries : Runtime.source list;  (* since current acquire *)
}

(* Bookkeeping blocks run inside [Runtime.guarded]: on the domains
   backend wrapper fields are shared across real domains (a failed
   try_lock mutates [failed_tries] while the holder runs), and the trace
   append must be atomic with the version bump.  On the simulator the
   guard is a plain call and the event order is exactly the unguarded
   one. *)

let create rt name =
  let t =
    {
      rt;
      uid = Runtime.fresh_resource_id rt name;
      real = Par.Backend.mutex (Runtime.backend rt);
      version = 0;
      last_release = None;
      last_acquire = None;
      last_event = None;
      failed_tries = [];
    }
  in
  Runtime.register_versioned rt t.uid
    ~get:(fun () -> t.version)
    ~set:(fun v -> t.version <- v);
  t

let uid t = t.uid
let locked t = t.real.m_locked ()
let runtime t = t.rt
let real_mutex t = t.real
let remember_event t src = t.last_event <- Some src

let acquire_srcs t =
  if Runtime.partial_order t.rt then Option.to_list t.last_release
  else Option.to_list t.last_event

(* Record/replay bookkeeping, shared with [Condvar]: a condition wait is
   a release of the mutex logged as a [Cond_wait] event against the
   condition's resource, and the subsequent wake is a re-acquisition. *)

let record_acquire_as t ~kind ~resource ~extra_srcs =
  Runtime.guarded t.rt (fun () ->
      let v = t.version in
      t.version <- v + 1;
      let src =
        Runtime.record t.rt ~kind ~resource ~version:v
          (extra_srcs @ acquire_srcs t)
      in
      t.last_acquire <- Some src;
      remember_event t src;
      src)

let record_release_as t ~kind ~resource =
  Runtime.guarded t.rt (fun () ->
      let srcs =
        if Runtime.partial_order t.rt then t.failed_tries
        else Option.to_list t.last_event
      in
      let src = Runtime.record t.rt ~kind ~resource ~version:t.version srcs in
      t.last_release <- Some src;
      remember_event t src;
      t.failed_tries <- [];
      src)

let replay_note_acquire t (e : Event.t) =
  Runtime.guarded t.rt (fun () ->
      Runtime.check_version t.rt e ~actual:t.version;
      t.version <- t.version + 1;
      let src = Runtime.replay_source t.rt e in
      t.last_acquire <- Some src;
      remember_event t src)

let replay_note_release t (e : Event.t) =
  Runtime.guarded t.rt (fun () ->
      let src = Runtime.replay_source t.rt e in
      t.last_release <- Some src;
      remember_event t src;
      t.failed_tries <- [])

let rec lock t =
  match Runtime.effective_mode t.rt with
  | Runtime.Native ->
    t.real.m_lock ();
    Runtime.observe_acquire t.rt t.last_release []
  | Runtime.Record ->
    t.real.m_lock ();
    ignore
      (record_acquire_as t ~kind:Event.Acquire ~resource:t.uid ~extra_srcs:[])
  | Runtime.Replay -> (
    match Runtime.take t.rt ~kinds:[ Event.Acquire ] ~resource:t.uid with
    | `Record_now -> lock t
    | `Event e ->
      (* The real acquisition may still block briefly behind a native
         (read-only) fiber — the hybrid-execution case of §4.2. *)
      t.real.m_lock ();
      replay_note_acquire t e;
      Runtime.complete t.rt e)

let rec try_lock t =
  match Runtime.effective_mode t.rt with
  | Runtime.Native ->
    let ok = t.real.m_try_lock () in
    if ok then Runtime.observe_acquire t.rt t.last_release [];
    ok
  | Runtime.Record ->
    if t.real.m_try_lock () then begin
      ignore
        (record_acquire_as t ~kind:Event.Try_ok ~resource:t.uid ~extra_srcs:[]);
      true
    end
    else begin
      (* The failure is caused by the current holder: order this event
         after the holder's acquire, and remember it so the holder's
         release is ordered after it (Fig. 4, ground-truth edges). *)
      Runtime.guarded t.rt (fun () ->
          let srcs =
            if Runtime.partial_order t.rt then Option.to_list t.last_acquire
            else Option.to_list t.last_event
          in
          let src =
            Runtime.record t.rt ~kind:Event.Try_fail ~resource:t.uid
              ~version:t.version srcs
          in
          if Runtime.partial_order t.rt then
            t.failed_tries <- src :: t.failed_tries
          else remember_event t src);
      false
    end
  | Runtime.Replay -> (
    match
      Runtime.take t.rt ~kinds:[ Event.Try_ok; Event.Try_fail ] ~resource:t.uid
    with
    | `Record_now -> try_lock t
    | `Event e -> (
      match e.Event.kind with
      | Event.Try_ok ->
        (* Retry through transient native holders until the recorded
           result is reproduced (§4.2, lock state pollution). *)
        while not (t.real.m_try_lock ()) do
          Engine.yield ()
        done;
        replay_note_acquire t e;
        Runtime.complete t.rt e;
        true
      | _ ->
        (* Recorded failure: the lock's state did not change, so the
           equivalent replay changes nothing and returns false.  No
           version check here: under partial order a failed try is only
           ordered against the holder it observed, and a contended
           hand-off can slip an extra acquisition in between — the benign
           reordering the paper's partial-order caveat on version
           checking (§5) anticipates. *)
        Runtime.guarded t.rt (fun () ->
            let src = Runtime.replay_source t.rt e in
            if Runtime.partial_order t.rt then
              t.failed_tries <- src :: t.failed_tries
            else remember_event t src);
        Runtime.complete t.rt e;
        false))

let rec unlock t =
  match Runtime.effective_mode t.rt with
  | Runtime.Native -> t.real.m_unlock ()
  | Runtime.Record ->
    ignore (record_release_as t ~kind:Event.Release ~resource:t.uid);
    t.real.m_unlock ()
  | Runtime.Replay -> (
    match Runtime.take t.rt ~kinds:[ Event.Release ] ~resource:t.uid with
    | `Record_now -> unlock t
    | `Event e ->
      Runtime.guarded t.rt (fun () ->
          Runtime.check_version t.rt e ~actual:t.version);
      t.real.m_unlock ();
      replay_note_release t e;
      Runtime.complete t.rt e)

let with_lock t f =
  lock t;
  Fun.protect ~finally:(fun () -> unlock t) f
