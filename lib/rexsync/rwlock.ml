type t = {
  rt : Runtime.t;
  uid : int;
  real : Par.Backend.rwlock;
  mutable version : int;  (* writer epochs *)
  mutable last_wr_release : Runtime.source option;
  mutable last_event : Runtime.source option;  (* total-order chain *)
  mutable read_releases : Runtime.source list;  (* since last writer *)
}

(* Bookkeeping is guarded: concurrent readers on different domains
   mutate [read_releases] and read the writer chain at the same time. *)

let create rt name =
  let t =
    {
      rt;
      uid = Runtime.fresh_resource_id rt name;
      real = Par.Backend.rwlock (Runtime.backend rt);
      version = 0;
      last_wr_release = None;
      last_event = None;
      read_releases = [];
    }
  in
  Runtime.register_versioned rt t.uid
    ~get:(fun () -> t.version)
    ~set:(fun v -> t.version <- v);
  t

let uid t = t.uid
let remember t src = t.last_event <- Some src

let rec rd_lock t =
  match Runtime.effective_mode t.rt with
  | Runtime.Native ->
    t.real.rw_rd_lock ();
    Runtime.observe_acquire t.rt t.last_wr_release []
  | Runtime.Record ->
    t.real.rw_rd_lock ();
    Runtime.guarded t.rt (fun () ->
        let srcs =
          if Runtime.partial_order t.rt then Option.to_list t.last_wr_release
          else Option.to_list t.last_event
        in
        let src =
          Runtime.record t.rt ~kind:Event.Rd_acquire ~resource:t.uid
            ~version:t.version srcs
        in
        remember t src)
  | Runtime.Replay -> (
    match Runtime.take t.rt ~kinds:[ Event.Rd_acquire ] ~resource:t.uid with
    | `Record_now -> rd_lock t
    | `Event e ->
      t.real.rw_rd_lock ();
      Runtime.guarded t.rt (fun () ->
          Runtime.check_version t.rt e ~actual:t.version;
          remember t (Runtime.replay_source t.rt e));
      Runtime.complete t.rt e)

let rec rd_unlock t =
  match Runtime.effective_mode t.rt with
  | Runtime.Native -> t.real.rw_rd_unlock ()
  | Runtime.Record ->
    Runtime.guarded t.rt (fun () ->
        let srcs =
          if Runtime.partial_order t.rt then [] else Option.to_list t.last_event
        in
        let src =
          Runtime.record t.rt ~kind:Event.Rd_release ~resource:t.uid
            ~version:t.version srcs
        in
        t.read_releases <- src :: t.read_releases;
        remember t src);
    t.real.rw_rd_unlock ()
  | Runtime.Replay -> (
    match Runtime.take t.rt ~kinds:[ Event.Rd_release ] ~resource:t.uid with
    | `Record_now -> rd_unlock t
    | `Event e ->
      t.real.rw_rd_unlock ();
      Runtime.guarded t.rt (fun () ->
          let src = Runtime.replay_source t.rt e in
          t.read_releases <- src :: t.read_releases;
          remember t src);
      Runtime.complete t.rt e)

let rec wr_lock t =
  match Runtime.effective_mode t.rt with
  | Runtime.Native ->
    t.real.rw_wr_lock ();
    Runtime.observe_acquire t.rt t.last_wr_release t.read_releases
  | Runtime.Record ->
    t.real.rw_wr_lock ();
    Runtime.guarded t.rt (fun () ->
        let v = t.version in
        t.version <- v + 1;
        let srcs =
          if Runtime.partial_order t.rt then
            Option.to_list t.last_wr_release @ t.read_releases
          else Option.to_list t.last_event
        in
        let src =
          Runtime.record t.rt ~kind:Event.Wr_acquire ~resource:t.uid ~version:v
            srcs
        in
        t.read_releases <- [];
        remember t src)
  | Runtime.Replay -> (
    match Runtime.take t.rt ~kinds:[ Event.Wr_acquire ] ~resource:t.uid with
    | `Record_now -> wr_lock t
    | `Event e ->
      t.real.rw_wr_lock ();
      Runtime.guarded t.rt (fun () ->
          Runtime.check_version t.rt e ~actual:t.version;
          t.version <- t.version + 1;
          t.read_releases <- [];
          remember t (Runtime.replay_source t.rt e));
      Runtime.complete t.rt e)

let rec wr_unlock t =
  match Runtime.effective_mode t.rt with
  | Runtime.Native -> t.real.rw_wr_unlock ()
  | Runtime.Record ->
    Runtime.guarded t.rt (fun () ->
        let srcs =
          if Runtime.partial_order t.rt then [] else Option.to_list t.last_event
        in
        let src =
          Runtime.record t.rt ~kind:Event.Wr_release ~resource:t.uid
            ~version:t.version srcs
        in
        t.last_wr_release <- Some src;
        remember t src);
    t.real.rw_wr_unlock ()
  | Runtime.Replay -> (
    match Runtime.take t.rt ~kinds:[ Event.Wr_release ] ~resource:t.uid with
    | `Record_now -> wr_unlock t
    | `Event e ->
      t.real.rw_wr_unlock ();
      Runtime.guarded t.rt (fun () ->
          let src = Runtime.replay_source t.rt e in
          t.last_wr_release <- Some src;
          remember t src);
      Runtime.complete t.rt e)

let with_rd t f =
  rd_lock t;
  Fun.protect ~finally:(fun () -> rd_unlock t) f

let with_wr t f =
  wr_lock t;
  Fun.protect ~finally:(fun () -> wr_unlock t) f
