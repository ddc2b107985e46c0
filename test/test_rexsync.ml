(* Record/replay tests: the determinism property (§2.2) — a replica that
   follows the same trace reaches the same state — plus divergence
   detection, NATIVE_EXEC, edge reduction and mode switching. *)

open Sim
open Rexsync

(* Run [script slot api] on [n_slots] fibers bound to slots, in record
   mode, on node 0 of a fresh engine; return (runtime, final state). *)

let fresh_engine ?(seed = 11) ?(nodes = 2) () =
  Engine.create ~seed ~cores_per_node:8 ~num_nodes:nodes ()

let run_slots eng rt ~n_slots script =
  let done_count = ref 0 in
  for slot = 0 to n_slots - 1 do
    ignore
      (Engine.spawn eng ~node:(Runtime.node rt)
         ~name:(Printf.sprintf "slot%d" slot)
         (fun () ->
           Runtime.bind_slot rt slot;
           script slot;
           incr done_count))
  done;
  Engine.run eng;
  Alcotest.(check int) "all slots finished" n_slots !done_count

(* Feed a recorded trace into a replay runtime. *)
let feed ~from_rt ~to_rt =
  let d =
    Trace.Delta.extract (Runtime.trace from_rt)
      ~base:(Trace.end_cut (Runtime.trace to_rt))
  in
  (match Trace.Delta.apply (Runtime.trace to_rt) d with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Runtime.feed_progress to_rt

(* --- A tiny deterministic "app": slots hammer a shared counter. --- *)

type counter_app = {
  lock : Lock.t;
  mutable value : int;
  mutable order : (int * int) list;  (* (slot, value-after) in acquire order *)
}

let counter_app rt =
  { lock = Lock.create rt "counter"; value = 0; order = [] }

let counter_script app iterations slot =
  for _ = 1 to iterations do
    Lock.lock app.lock;
    Engine.work 1e-4;
    app.value <- app.value + 1;
    app.order <- (slot, app.value) :: app.order;
    Lock.unlock app.lock
  done

let record_counter ~seed ~n_slots ~iterations =
  let eng = fresh_engine ~seed () in
  let rt = Runtime.create (Par.Backend.of_sim eng) ~node:0 ~slots:n_slots in
  let app = counter_app rt in
  run_slots eng rt ~n_slots (counter_script app iterations);
  (rt, app)

let replay_counter ?(replay_seed = 999) ~from_rt ~n_slots ~iterations () =
  let eng2 = fresh_engine ~seed:replay_seed () in
  let rt2 = Runtime.create (Par.Backend.of_sim eng2) ~node:0 ~slots:n_slots in
  Runtime.set_mode rt2 Runtime.Replay;
  let app2 = counter_app rt2 in
  feed ~from_rt ~to_rt:rt2;
  run_slots eng2 rt2 ~n_slots (counter_script app2 iterations);
  (rt2, app2)

let determinism_counter () =
  let n_slots = 4 and iterations = 25 in
  let rt, app = record_counter ~seed:3 ~n_slots ~iterations in
  (* Replay under a very different scheduler seed: the trace, not luck,
     must force the same interleaving. *)
  let _, app2 = replay_counter ~replay_seed:4242 ~from_rt:rt ~n_slots ~iterations () in
  Alcotest.(check int) "same value" app.value app2.value;
  Alcotest.(check (list (pair int int))) "same acquisition order" app.order app2.order

let replay_stats_accumulate () =
  let n_slots = 3 and iterations = 10 in
  let rt, _ = record_counter ~seed:5 ~n_slots ~iterations in
  let rt2, _ = replay_counter ~from_rt:rt ~n_slots ~iterations () in
  let s = Runtime.stats rt and s2 = Runtime.stats rt2 in
  Alcotest.(check int)
    "every recorded event replayed" s.events_recorded s2.events_replayed;
  Alcotest.(check bool) "some events recorded" true (s.events_recorded > 0);
  Alcotest.(check bool) "replay waited at least once" true (s2.waited_events > 0)

let divergence_detected () =
  let n_slots = 2 and iterations = 5 in
  let rt, _ = record_counter ~seed:7 ~n_slots ~iterations in
  let eng2 = fresh_engine () in
  let rt2 = Runtime.create (Par.Backend.of_sim eng2) ~node:0 ~slots:n_slots in
  Runtime.set_mode rt2 Runtime.Replay;
  let app2 = counter_app rt2 in
  let rogue = Lock.create rt2 "rogue" in
  feed ~from_rt:rt ~to_rt:rt2;
  let caught = ref false in
  for slot = 0 to n_slots - 1 do
    ignore
      (Engine.spawn eng2 ~node:0 (fun () ->
           Runtime.bind_slot rt2 slot;
           try
             (* Slot 0 deviates: touches a different lock first. *)
             if slot = 0 then Lock.lock rogue;
             counter_script app2 iterations slot
           with Runtime.Divergence _ -> caught := true))
  done;
  Engine.run eng2;
  Alcotest.(check bool) "divergence caught" true !caught

let nondet_recorded_and_replayed () =
  let eng = fresh_engine () in
  let rt = Runtime.create (Par.Backend.of_sim eng) ~node:0 ~slots:1 in
  let recorded = ref [] in
  run_slots eng rt ~n_slots:1 (fun _slot ->
      for i = 1 to 5 do
        let v =
          Runtime.nondet rt (fun () -> string_of_int (i * 100 + Engine.self ()))
        in
        recorded := v :: !recorded
      done);
  let eng2 = fresh_engine ~seed:77 () in
  let rt2 = Runtime.create (Par.Backend.of_sim eng2) ~node:0 ~slots:1 in
  Runtime.set_mode rt2 Runtime.Replay;
  feed ~from_rt:rt ~to_rt:rt2;
  let replayed = ref [] in
  run_slots eng2 rt2 ~n_slots:1 (fun _slot ->
      for _ = 1 to 5 do
        let v = Runtime.nondet rt2 (fun () -> "WRONG") in
        replayed := v :: !replayed
      done);
  Alcotest.(check (list string)) "nondet values replayed" !recorded !replayed

let native_exec_not_recorded () =
  let eng = fresh_engine () in
  let rt = Runtime.create (Par.Backend.of_sim eng) ~node:0 ~slots:1 in
  let l = Lock.create rt "singleton" in
  run_slots eng rt ~n_slots:1 (fun _slot ->
      Runtime.native_exec rt (fun () ->
          Lock.lock l;
          Lock.unlock l));
  Alcotest.(check int)
    "no events recorded inside NATIVE_EXEC" 0
    (Trace.event_count (Runtime.trace rt))

let unbound_fiber_is_native () =
  let eng = fresh_engine () in
  let rt = Runtime.create (Par.Backend.of_sim eng) ~node:0 ~slots:1 in
  let l = Lock.create rt "lk" in
  ignore
    (Engine.spawn eng ~node:0 (fun () ->
         Lock.lock l;
         Lock.unlock l));
  Engine.run eng;
  Alcotest.(check int) "nothing recorded" 0 (Trace.event_count (Runtime.trace rt))

(* --- Edge reduction (§4.2): reduced traces still replay correctly and
   carry strictly fewer edges. --- *)

(* Nested locks make transitivity bite: when a thread inherits lock A
   from a peer, the edge on nested lock B is implied (A's release
   happens after B's in the peer). *)
type nested_app = { a : Lock.t; b : Lock.t; mutable value : int }

let nested_script app iterations _slot =
  for _ = 1 to iterations do
    Lock.lock app.a;
    Lock.lock app.b;
    Engine.work 1e-4;
    app.value <- app.value + 1;
    Lock.unlock app.b;
    Lock.unlock app.a
  done

let edge_reduction_effective () =
  let n_slots = 4 and iterations = 20 in
  let run_with reduce =
    let eng = fresh_engine ~seed:13 () in
    let rt = Runtime.create ~reduce_edges:reduce (Par.Backend.of_sim eng) ~node:0 ~slots:n_slots in
    let app = { a = Lock.create rt "A"; b = Lock.create rt "B"; value = 0 } in
    run_slots eng rt ~n_slots (nested_script app iterations);
    rt
  in
  let rt_red = run_with true and rt_full = run_with false in
  let red = Runtime.stats rt_red and full = Runtime.stats rt_full in
  Alcotest.(check bool)
    (Printf.sprintf "reduced %d < full %d" red.edges_recorded full.edges_recorded)
    true
    (red.edges_recorded < full.edges_recorded);
  Alcotest.(check bool) "something was reduced" true (red.edges_reduced > 0);
  (* The reduced trace still replays to the same state. *)
  let eng2 = fresh_engine ~seed:5 () in
  let rt2 = Runtime.create (Par.Backend.of_sim eng2) ~node:0 ~slots:n_slots in
  Runtime.set_mode rt2 Runtime.Replay;
  let app2 = { a = Lock.create rt2 "A"; b = Lock.create rt2 "B"; value = 0 } in
  feed ~from_rt:rt_red ~to_rt:rt2;
  run_slots eng2 rt2 ~n_slots (nested_script app2 iterations);
  Alcotest.(check int) "reduced trace replays" (n_slots * iterations) app2.value

(* --- Try-lock partial order (Fig. 4) --- *)

type try_app = { lock : Lock.t; mutable results : (int * bool) list }

let try_script app slot =
  if slot = 0 then begin
    Lock.lock app.lock;
    Engine.work 2e-3;
    Lock.unlock app.lock
  end
  else
    for _ = 1 to 3 do
      Engine.work 1e-4;
      let ok = Lock.try_lock app.lock in
      app.results <- (slot, ok) :: app.results;
      if ok then begin
        Engine.work 1e-4;
        Lock.unlock app.lock
      end
    done

let trylock_replay_matches () =
  let eng = fresh_engine ~seed:21 () in
  let rt = Runtime.create (Par.Backend.of_sim eng) ~node:0 ~slots:3 in
  let app = { lock = Lock.create rt "try"; results = [] } in
  run_slots eng rt ~n_slots:3 (try_script app);
  let eng2 = fresh_engine ~seed:4000 () in
  let rt2 = Runtime.create (Par.Backend.of_sim eng2) ~node:0 ~slots:3 in
  Runtime.set_mode rt2 Runtime.Replay;
  let app2 = { lock = Lock.create rt2 "try"; results = [] } in
  feed ~from_rt:rt ~to_rt:rt2;
  run_slots eng2 rt2 ~n_slots:3 (try_script app2);
  (* Per-slot result sequences must match exactly (record/result checking). *)
  let per_slot app s =
    List.filter_map (fun (sl, ok) -> if sl = s then Some ok else None) app.results
  in
  for s = 1 to 2 do
    Alcotest.(check (list bool))
      (Printf.sprintf "slot %d try results" s)
      (per_slot app s) (per_slot app2 s)
  done

let trylock_partial_vs_total_edges () =
  let run po =
    let eng = fresh_engine ~seed:21 () in
    let rt = Runtime.create ~partial_order:po ~reduce_edges:false (Par.Backend.of_sim eng) ~node:0 ~slots:3 in
    let app = { lock = Lock.create rt "try"; results = [] } in
    run_slots eng rt ~n_slots:3 (try_script app);
    rt
  in
  let po = run true and total = run false in
  (* In total-order mode every event chains to its predecessor on the
     lock; ground-truth partial order gives the replay more freedom but
     the same behaviour.  Both must replay; totals differ. *)
  Alcotest.(check bool) "recorded edges differ" true
    (Trace.edge_count (Runtime.trace po) <> Trace.edge_count (Runtime.trace total)
    || Trace.event_count (Runtime.trace po)
       = Trace.event_count (Runtime.trace total))

(* --- Rwlock --- *)

type rw_app = {
  rw : Rwlock.t;
  mutable data : int;
  mutable reads : (int * int) list;  (* slot, value seen *)
}

let rw_script app slot =
  if slot = 0 then
    for _ = 1 to 10 do
      Rwlock.wr_lock app.rw;
      Engine.work 1e-4;
      app.data <- app.data + 1;
      Rwlock.wr_unlock app.rw
    done
  else
    for _ = 1 to 10 do
      Rwlock.rd_lock app.rw;
      Engine.work 5e-5;
      app.reads <- (slot, app.data) :: app.reads;
      Rwlock.rd_unlock app.rw
    done

let rwlock_replay () =
  let eng = fresh_engine ~seed:31 () in
  let rt = Runtime.create (Par.Backend.of_sim eng) ~node:0 ~slots:3 in
  let app = { rw = Rwlock.create rt "rw"; data = 0; reads = [] } in
  run_slots eng rt ~n_slots:3 (rw_script app);
  let eng2 = fresh_engine ~seed:1234 () in
  let rt2 = Runtime.create (Par.Backend.of_sim eng2) ~node:0 ~slots:3 in
  Runtime.set_mode rt2 Runtime.Replay;
  let app2 = { rw = Rwlock.create rt2 "rw"; data = 0; reads = [] } in
  feed ~from_rt:rt ~to_rt:rt2;
  run_slots eng2 rt2 ~n_slots:3 (rw_script app2);
  let per_slot app s =
    List.filter_map (fun (sl, v) -> if sl = s then Some v else None) app.reads
  in
  Alcotest.(check int) "writer total" app.data app2.data;
  for s = 1 to 2 do
    Alcotest.(check (list int))
      (Printf.sprintf "slot %d reads identical" s)
      (per_slot app s) (per_slot app2 s)
  done

(* --- Condvar: a producer/consumer queue --- *)

type pc_app = {
  m : Lock.t;
  nonempty : Condvar.t;
  q : int Queue.t;
  mutable consumed : (int * int) list;  (* slot, item *)
}

let pc_script app n_items slot =
  if slot = 0 then
    for i = 1 to n_items do
      Engine.work 1e-4;
      Lock.lock app.m;
      Queue.push i app.q;
      Condvar.signal app.nonempty;
      Lock.unlock app.m
    done
  else begin
    let quota = n_items / 2 in
    for _ = 1 to quota do
      Lock.lock app.m;
      while Queue.is_empty app.q do
        Condvar.wait app.nonempty app.m
      done;
      let item = Queue.pop app.q in
      app.consumed <- (slot, item) :: app.consumed;
      Lock.unlock app.m
    done
  end

let condvar_replay () =
  let n_items = 20 in
  let mk rt =
    {
      m = Lock.create rt "pc.m";
      nonempty = Condvar.create rt "pc.cv";
      q = Queue.create ();
      consumed = [];
    }
  in
  let eng = fresh_engine ~seed:41 () in
  let rt = Runtime.create (Par.Backend.of_sim eng) ~node:0 ~slots:3 in
  let app = mk rt in
  run_slots eng rt ~n_slots:3 (pc_script app n_items);
  Alcotest.(check int) "all consumed" n_items (List.length app.consumed);
  let eng2 = fresh_engine ~seed:987 () in
  let rt2 = Runtime.create (Par.Backend.of_sim eng2) ~node:0 ~slots:3 in
  Runtime.set_mode rt2 Runtime.Replay;
  let app2 = mk rt2 in
  feed ~from_rt:rt ~to_rt:rt2;
  run_slots eng2 rt2 ~n_slots:3 (pc_script app2 n_items);
  Alcotest.(check (list (pair int int)))
    "same consumption assignment" app.consumed app2.consumed

(* --- Semaphore --- *)

let sem_replay () =
  let script sem log slot =
    for _ = 1 to 8 do
      Sem.acquire sem;
      Engine.work 1e-4;
      log := slot :: !log;
      Sem.release sem
    done
  in
  let eng = fresh_engine ~seed:51 () in
  let rt = Runtime.create (Par.Backend.of_sim eng) ~node:0 ~slots:3 in
  let sem = Sem.create rt "sem" 2 in
  let log = ref [] in
  run_slots eng rt ~n_slots:3 (script sem log);
  Alcotest.(check int) "record completed" 24 (List.length !log);
  let eng2 = fresh_engine ~seed:151 () in
  let rt2 = Runtime.create (Par.Backend.of_sim eng2) ~node:0 ~slots:3 in
  Runtime.set_mode rt2 Runtime.Replay;
  let sem2 = Sem.create rt2 "sem" 2 in
  let log2 = ref [] in
  feed ~from_rt:rt ~to_rt:rt2;
  run_slots eng2 rt2 ~n_slots:3 (script sem2 log2);
  Alcotest.(check int) "replay completed" 24 (List.length !log2)

(* --- Mode switch: replay a prefix, then get promoted and keep going. --- *)

let mode_switch_continues () =
  let n_slots = 2 in
  let rt, _app = record_counter ~seed:61 ~n_slots ~iterations:10 in
  let eng2 = fresh_engine ~seed:62 () in
  let rt2 = Runtime.create (Par.Backend.of_sim eng2) ~node:0 ~slots:n_slots in
  Runtime.set_mode rt2 Runtime.Replay;
  let app2 = counter_app rt2 in
  feed ~from_rt:rt ~to_rt:rt2;
  let finished = ref 0 in
  for slot = 0 to n_slots - 1 do
    ignore
      (Engine.spawn eng2 ~node:0 (fun () ->
           Runtime.bind_slot rt2 slot;
           (* Phase 1 replays the recorded 10 iterations; phase 2's first
              wrapper call parks in await_next until the promotion below
              switches the runtime to record mode. *)
           counter_script app2 10 slot;
           counter_script app2 5 slot;
           incr finished))
  done;
  (* The engine quiesces with both slots parked at the record/replay
     boundary; promote and let them continue recording. *)
  Engine.run eng2;
  Runtime.set_mode rt2 Runtime.Record;
  Runtime.feed_progress rt2;
  Engine.run eng2;
  Alcotest.(check int) "both slots finished" n_slots !finished;
  Alcotest.(check int) "replayed + newly recorded" ((10 + 5) * n_slots) app2.value;
  Alcotest.(check bool)
    "new events were recorded beyond the fed trace" true
    (Trace.event_count (Runtime.trace rt2) > Trace.event_count (Runtime.trace rt))

(* --- Resource id determinism --- *)

let resource_ids_deterministic () =
  let eng = fresh_engine () in
  let rt_a = Runtime.create (Par.Backend.of_sim eng) ~node:0 ~slots:2 in
  let rt_b = Runtime.create (Par.Backend.of_sim eng) ~node:1 ~slots:2 in
  let mk rt = List.init 5 (fun i -> Runtime.fresh_resource_id rt (Printf.sprintf "r%d" i)) in
  Alcotest.(check (list int)) "same global uids" (mk rt_a) (mk rt_b)

let suite =
  [
    Alcotest.test_case "determinism: counter order" `Quick determinism_counter;
    Alcotest.test_case "replay stats" `Quick replay_stats_accumulate;
    Alcotest.test_case "divergence detected" `Quick divergence_detected;
    Alcotest.test_case "nondet record/replay" `Quick nondet_recorded_and_replayed;
    Alcotest.test_case "NATIVE_EXEC not recorded" `Quick native_exec_not_recorded;
    Alcotest.test_case "unbound fiber native" `Quick unbound_fiber_is_native;
    Alcotest.test_case "edge reduction" `Quick edge_reduction_effective;
    Alcotest.test_case "trylock replay matches" `Quick trylock_replay_matches;
    Alcotest.test_case "trylock partial vs total" `Quick trylock_partial_vs_total_edges;
    Alcotest.test_case "rwlock replay" `Quick rwlock_replay;
    Alcotest.test_case "condvar replay" `Quick condvar_replay;
    Alcotest.test_case "semaphore replay" `Quick sem_replay;
    Alcotest.test_case "mode switch (promotion)" `Quick mode_switch_continues;
    Alcotest.test_case "resource uid determinism" `Quick resource_ids_deterministic;
  ]

(* --- Hybrid execution: native readers interleave with record/replay
   (lock-state pollution, §4.2). --- *)

let hybrid_native_readers () =
  (* Record with a native reader fiber hammering the same lock; then
     replay with another native reader.  The recorded slots must still
     replay exactly, with the readers transparently absorbed. *)
  let run_phase ~seed ~replay_from =
    let eng = fresh_engine ~seed () in
    let rt = Runtime.create (Par.Backend.of_sim eng) ~node:0 ~slots:2 in
    (match replay_from with
    | Some from_rt ->
      Runtime.set_mode rt Runtime.Replay;
      feed ~from_rt ~to_rt:rt
    | None -> ());
    let app = counter_app rt in
    let stop = ref false in
    let reads = ref 0 in
    (* unbound fiber: always native *)
    ignore
      (Engine.spawn eng ~node:0 ~name:"reader" (fun () ->
           while not !stop do
             Lock.lock app.lock;
             Engine.work 2e-5;
             ignore app.value;
             incr reads;
             Lock.unlock app.lock
           done));
    let finished = ref 0 in
    for slot = 0 to 1 do
      ignore
        (Engine.spawn eng ~node:0 (fun () ->
             Runtime.bind_slot rt slot;
             counter_script app 15 slot;
             incr finished))
    done;
    Engine.run ~until:0.5 eng;
    stop := true;
    Engine.run eng;
    Alcotest.(check int) "slots finished" 2 !finished;
    Alcotest.(check bool) "reader made progress" true (!reads > 0);
    (rt, app)
  in
  let rt, app = run_phase ~seed:71 ~replay_from:None in
  let _, app2 = run_phase ~seed:72 ~replay_from:(Some rt) in
  Alcotest.(check int) "hybrid replay converges" app.value app2.value;
  Alcotest.(check (list (pair int int))) "same order" app.order app2.order

let trylock_pollution_retry () =
  (* Replay a recorded successful try-lock while a native fiber
     transiently holds the real lock: the wrapper must retry until it
     reproduces the recorded success. *)
  let eng = fresh_engine ~seed:81 () in
  let rt = Runtime.create (Par.Backend.of_sim eng) ~node:0 ~slots:1 in
  let l = Lock.create rt "t" in
  let got = ref false in
  run_slots eng rt ~n_slots:1 (fun _ ->
      Engine.work 1e-4;
      got := Lock.try_lock l;
      if !got then Lock.unlock l);
  Alcotest.(check bool) "recorded success" true !got;
  (* Replay with a native holder occupying the lock initially. *)
  let eng2 = fresh_engine ~seed:82 () in
  let rt2 = Runtime.create (Par.Backend.of_sim eng2) ~node:0 ~slots:1 in
  Runtime.set_mode rt2 Runtime.Replay;
  let l2 = Lock.create rt2 "t" in
  feed ~from_rt:rt ~to_rt:rt2;
  ignore
    (Engine.spawn eng2 ~node:0 ~name:"polluter" (fun () ->
         Lock.lock l2;
         Engine.work 5e-4;
         (* longer than the recorded attempt point *)
         Lock.unlock l2));
  let got2 = ref false in
  run_slots eng2 rt2 ~n_slots:1 (fun _ ->
      Engine.work 1e-4;
      got2 := Lock.try_lock l2;
      if !got2 then Lock.unlock l2);
  Alcotest.(check bool) "replay retried through pollution" true !got2

(* Busy time can never exceed cores x elapsed time. *)
let prop_work_conservation =
  QCheck.Test.make ~name:"engine work conservation" ~count:50
    QCheck.(pair small_int (int_range 1 20))
    (fun (seed, jobs) ->
      let eng = Engine.create ~seed ~cores_per_node:4 ~num_nodes:1 () in
      for i = 1 to jobs do
        ignore
          (Engine.spawn eng ~node:0 (fun () ->
               Engine.work (1e-3 *. float_of_int (1 + (i mod 5)))))
      done;
      Engine.run eng;
      Engine.busy_time eng 0 <= (4. *. Engine.clock eng) +. 1e-9)

let extra_suite =
  [
    Alcotest.test_case "hybrid native readers" `Quick hybrid_native_readers;
    Alcotest.test_case "trylock pollution retry" `Quick trylock_pollution_retry;
    QCheck_alcotest.to_alcotest prop_work_conservation;
  ]

let suite = suite @ extra_suite

(* --- Property: ANY script of synchronization operations records and
   replays to the same state, under a different scheduler seed. --- *)

type op = MutexCycle of int | TryCycle of int | RwRead of int | RwWrite of int
        | SemCycle of int | NondetOp

let op_gen n_res =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun k -> MutexCycle (k mod n_res)) small_nat);
        (2, map (fun k -> TryCycle (k mod n_res)) small_nat);
        (2, map (fun k -> RwRead (k mod n_res)) small_nat);
        (2, map (fun k -> RwWrite (k mod n_res)) small_nat);
        (1, map (fun k -> SemCycle (k mod n_res)) small_nat);
        (1, return NondetOp);
      ])

let script_gen =
  QCheck.Gen.(
    let* n_slots = int_range 2 4 in
    let* scripts = list_repeat n_slots (list_size (int_bound 25) (op_gen 3)) in
    let* seed_a = int_bound 10_000 in
    let* seed_b = int_bound 10_000 in
    return (n_slots, scripts, seed_a, seed_b))

(* Every mutable cell is guarded by exactly one primitive — the model
   Rex requires (no data races); nondet values land in slot-local cells. *)
type rand_app = {
  mutexes : Lock.t array;
  rws : Rwlock.t array;
  sems : Sem.t array;
  mstate : int array;  (* guarded by mutexes.(k) *)
  wstate : int array;  (* guarded by rws.(k) in write mode *)
  slot_state : int array;  (* slot-local *)
}

let mk_rand_app rt n_res n_slots =
  {
    mutexes = Array.init n_res (fun i -> Lock.create rt (Printf.sprintf "m%d" i));
    rws = Array.init n_res (fun i -> Rwlock.create rt (Printf.sprintf "w%d" i));
    sems = Array.init n_res (fun i -> Sem.create rt (Printf.sprintf "s%d" i) 2);
    mstate = Array.make n_res 0;
    wstate = Array.make n_res 0;
    slot_state = Array.make n_slots 0;
  }

let run_op rt app slot = function
  | MutexCycle k ->
    Lock.lock app.mutexes.(k);
    Engine.work 2e-5;
    app.mstate.(k) <- Hashtbl.hash (app.mstate.(k), slot, k);
    Lock.unlock app.mutexes.(k)
  | TryCycle k ->
    if Lock.try_lock app.mutexes.(k) then begin
      app.mstate.(k) <- Hashtbl.hash (app.mstate.(k), slot, k, "try");
      Lock.unlock app.mutexes.(k)
    end
  | RwRead k ->
    Rwlock.rd_lock app.rws.(k);
    Engine.work 1e-5;
    app.slot_state.(slot) <- Hashtbl.hash (app.slot_state.(slot), app.wstate.(k));
    Rwlock.rd_unlock app.rws.(k)
  | RwWrite k ->
    Rwlock.wr_lock app.rws.(k);
    Engine.work 1e-5;
    app.wstate.(k) <- Hashtbl.hash (app.wstate.(k), slot, k, "w");
    Rwlock.wr_unlock app.rws.(k)
  | SemCycle k ->
    Sem.acquire app.sems.(k);
    Engine.work 1e-5;
    Sem.release app.sems.(k)
  | NondetOp ->
    let v = Runtime.nondet rt (fun () -> string_of_int (Engine.self ())) in
    app.slot_state.(slot) <- Hashtbl.hash (app.slot_state.(slot), v)

let run_random_phase ~seed ~n_slots ~scripts ~replay_from =
  let eng = fresh_engine ~seed () in
  let rt = Runtime.create (Par.Backend.of_sim eng) ~node:0 ~slots:n_slots in
  (match replay_from with
  | Some from_rt ->
    Runtime.set_mode rt Runtime.Replay;
    feed ~from_rt ~to_rt:rt
  | None -> ());
  let app = mk_rand_app rt 3 n_slots in
  let finished = ref 0 in
  List.iteri
    (fun slot ops ->
      ignore
        (Engine.spawn eng ~node:0 (fun () ->
             Runtime.bind_slot rt slot;
             List.iter (run_op rt app slot) ops;
             incr finished)))
    scripts;
  Engine.run eng;
  (rt, app, !finished)

let prop_random_scripts_deterministic =
  QCheck.Test.make ~name:"random sync scripts replay deterministically"
    ~count:40 (QCheck.make script_gen)
    (fun (n_slots, scripts, seed_a, seed_b) ->
      let rt, app, fin1 =
        run_random_phase ~seed:seed_a ~n_slots ~scripts ~replay_from:None
      in
      let _, app2, fin2 =
        run_random_phase ~seed:(seed_b + 20000) ~n_slots ~scripts
          ~replay_from:(Some rt)
      in
      fin1 = n_slots && fin2 = n_slots && app.mstate = app2.mstate
      && app.wstate = app2.wstate
      && app.slot_state = app2.slot_state)

let suite =
  suite @ [ QCheck_alcotest.to_alcotest prop_random_scripts_deterministic ]

(* --- Observed cuts: what a native reader's answer depends on. ---

   One scenario on either backend.  [run f] runs [f] in a fresh fiber to
   completion, so the phases below happen in order. *)

let observing_scenario bk ~run =
  let rt = Runtime.create bk ~node:0 ~slots:2 in
  let m = Lock.create rt "m" in
  let fresh = Lock.create rt "fresh" in
  let w = Rwlock.create rt "w" in
  let s = Sem.create rt "s" 1 in
  (* slot 0: a mutex section (events 1-2), then a writer section (3-4);
     slot 1: a reader section ordered after that writer (events 1-2) *)
  run (fun () ->
      Runtime.bind_slot rt 0;
      Lock.with_lock m ignore;
      Rwlock.with_wr w ignore;
      Runtime.unbind_slot rt);
  run (fun () ->
      Runtime.bind_slot rt 1;
      Rwlock.with_rd w ignore;
      Runtime.unbind_slot rt);
  let cut = Alcotest.(option (array int)) in
  let obs f = Option.map Trace.Cut.to_array (snd (Runtime.observing rt f)) in
  run (fun () ->
      Alcotest.check cut "mutex: its last release" (Some [| 2; 0 |])
        (obs (fun () -> Lock.with_lock m ignore));
      Alcotest.check cut "try_lock: its last release" (Some [| 2; 0 |])
        (obs (fun () -> if Lock.try_lock m then Lock.unlock m));
      Alcotest.check cut "rd_lock: the last writer release" (Some [| 4; 0 |])
        (obs (fun () -> Rwlock.with_rd w ignore));
      Alcotest.check cut "wr_lock: also the reader releases" (Some [| 4; 2 |])
        (obs (fun () -> Rwlock.with_wr w ignore));
      Alcotest.check cut "never released: zero" (Some [| 0; 0 |])
        (obs (fun () -> Lock.with_lock fresh ignore));
      Alcotest.check cut "no primitive: no bound" None (obs ignore);
      Alcotest.check cut "a semaphore: no bound" None
        (obs (fun () ->
             Lock.with_lock m ignore;
             Sem.acquire s;
             Sem.release s));
      Alcotest.check cut "nested: the outer scope joins the inner"
        (Some [| 4; 0 |])
        (obs (fun () ->
             Lock.with_lock m ignore;
             Alcotest.check cut "inner" (Some [| 4; 0 |])
               (obs (fun () -> Rwlock.with_rd w ignore))));
      Alcotest.check cut "nested: an opaque inner scope" None
        (obs (fun () ->
             Lock.with_lock m ignore;
             ignore (obs (fun () -> Sem.acquire s; Sem.release s))));
      let r, c = Runtime.observing rt (fun () -> 42) in
      Alcotest.(check int) "result passed through" 42 r;
      Alcotest.check cut "and no bound" None (Option.map Trace.Cut.to_array c));
  (* Concurrent scopes stay apart: fibers alternate a tracked scope with
     an empty one, and a leak between them would bound the empty one. *)
  let leaks = Atomic.make 0 in
  run (fun () ->
      let dones = Atomic.make 0 in
      let fibers = 4 in
      for _ = 1 to fibers do
        Par.Backend.spawn bk ~node:0 ~name:"observer" (fun () ->
            for _ = 1 to 50 do
              if obs (fun () -> Lock.with_lock m Engine.yield) <> Some [| 2; 0 |]
              then Atomic.incr leaks;
              if obs Engine.yield <> None then Atomic.incr leaks
            done;
            Atomic.incr dones)
      done;
      while Atomic.get dones < fibers do
        Engine.yield ()
      done);
  Alcotest.(check int) "scopes of concurrent fibers stay apart" 0
    (Atomic.get leaks)

let observing_sim () =
  let eng = fresh_engine () in
  observing_scenario (Par.Backend.of_sim eng) ~run:(fun f ->
      ignore (Engine.spawn eng ~node:0 f);
      Engine.run eng)

let observing_domains () =
  let d = Par.Domains.create ~seed:3 ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Par.Domains.shutdown d)
    (fun () ->
      observing_scenario (Par.Domains.backend d) ~run:(Par.Domains.run d))

let suite =
  suite
  @ [
      Alcotest.test_case "observing: cuts on the simulator" `Quick
        observing_sim;
      Alcotest.test_case "observing: cuts on domains" `Quick observing_domains;
    ]
