type t = {
  rt : Runtime.t;
  uid : int;
  real : Par.Backend.cond;
  pending_signals : Runtime.source Queue.t;
      (* signal events not yet claimed by a woken waiter; under the
         runtime guard on nondeterministic backends *)
  mutable last_broadcast : Runtime.source option;
}

let create rt name =
  {
    rt;
    uid = Runtime.fresh_resource_id rt name;
    real = Par.Backend.cond (Runtime.backend rt);
    pending_signals = Queue.create ();
    last_broadcast = None;
  }

let uid t = t.uid

(* The source ordering a wake: prefer an unclaimed signal (FIFO), falling
   back to the last broadcast.  If two signals race to wake two waiters
   the pairing may swap, which is harmless: the state a waiter observes is
   protected by the mutex, whose own acquire edges capture the true
   order. *)
let claim_wake_src t =
  Runtime.guarded t.rt (fun () ->
      match Queue.take_opt t.pending_signals with
      | Some s -> Some s
      | None -> t.last_broadcast)

let rec wait t (m : Lock.t) =
  match Runtime.effective_mode t.rt with
  | Runtime.Native ->
    t.real.c_wait (Lock.real_mutex m);
    Runtime.observe_opaque t.rt
  | Runtime.Record ->
    (* Going to sleep releases the mutex: log it as this condition's
       [Cond_wait] with the mutex's release bookkeeping. *)
    ignore (Lock.record_release_as m ~kind:Event.Cond_wait ~resource:t.uid);
    t.real.c_wait (Lock.real_mutex m);
    (* Awake and holding the real mutex again. *)
    let extra = Option.to_list (claim_wake_src t) in
    ignore
      (Lock.record_acquire_as m ~kind:Event.Cond_wake ~resource:t.uid
         ~extra_srcs:extra)
  | Runtime.Replay -> (
    match Runtime.take t.rt ~kinds:[ Event.Cond_wait ] ~resource:t.uid with
    | `Record_now -> wait t m
    | `Event e ->
      (Lock.real_mutex m).m_unlock ();
      Lock.replay_note_release m e;
      Runtime.complete t.rt e;
      (* Park until the recorded signal (and the mutex hand-over) have
         replayed, then re-acquire the real mutex — the real condition
         variable is not consulted. *)
      (match Runtime.take t.rt ~kinds:[ Event.Cond_wake ] ~resource:t.uid with
      | `Record_now ->
        (* Promoted while asleep: fall back to the real primitive and
           wake on a genuine signal. *)
        (Lock.real_mutex m).m_lock ();
        t.real.c_wait (Lock.real_mutex m);
        let extra = Option.to_list (claim_wake_src t) in
        ignore
          (Lock.record_acquire_as m ~kind:Event.Cond_wake ~resource:t.uid
             ~extra_srcs:extra)
      | `Event e ->
        (Lock.real_mutex m).m_lock ();
        Lock.replay_note_acquire m e;
        Runtime.complete t.rt e))

let rec signal t =
  match Runtime.effective_mode t.rt with
  | Runtime.Native -> t.real.c_signal ()
  | Runtime.Record ->
    Runtime.guarded t.rt (fun () ->
        let src =
          Runtime.record t.rt ~kind:Event.Cond_signal ~resource:t.uid []
        in
        Queue.push src t.pending_signals);
    t.real.c_signal ()
  | Runtime.Replay -> (
    match Runtime.take t.rt ~kinds:[ Event.Cond_signal ] ~resource:t.uid with
    | `Record_now -> signal t
    | `Event e ->
      (* Replaying waiters watch the scoreboard, but a native fiber might
         be waiting on the real condition variable (hybrid execution). *)
      t.real.c_signal ();
      Runtime.guarded t.rt (fun () ->
          Queue.push (Runtime.replay_source t.rt e) t.pending_signals);
      Runtime.complete t.rt e)

let rec broadcast t =
  match Runtime.effective_mode t.rt with
  | Runtime.Native -> t.real.c_broadcast ()
  | Runtime.Record ->
    Runtime.guarded t.rt (fun () ->
        let src =
          Runtime.record t.rt ~kind:Event.Cond_broadcast ~resource:t.uid []
        in
        t.last_broadcast <- Some src);
    t.real.c_broadcast ()
  | Runtime.Replay -> (
    match Runtime.take t.rt ~kinds:[ Event.Cond_broadcast ] ~resource:t.uid with
    | `Record_now -> broadcast t
    | `Event e ->
      t.real.c_broadcast ();
      Runtime.guarded t.rt (fun () ->
          t.last_broadcast <- Some (Runtime.replay_source t.rt e));
      Runtime.complete t.rt e)
