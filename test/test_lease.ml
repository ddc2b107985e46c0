(* Leader leases and the linearizable read fast path: lease grant /
   expiry / mutual-exclusion invariants at the Paxos layer, and
   stale-read fencing + quorum reads at the stack layer (SMR, Rex). *)

open Sim
module R = Rex_core

(* --- Paxos-level cluster (mirrors test_paxos's harness) --- *)

type replica_ctx = {
  mutable rep : Paxos.Replica.t;
  store : Paxos.Store.t;
}

type cluster = {
  eng : Engine.t;
  net : Net.t;
  nodes : int list;
  ctxs : replica_ctx array;
}

let mk_replica net cfg store =
  let cbs =
    {
      Paxos.Replica.on_committed = (fun _ _ -> ());
      on_become_leader = (fun () -> ());
      on_new_leader = (fun _ -> ());
    }
  in
  let rep = Paxos.Replica.create net cfg store cbs in
  Paxos.Replica.start rep;
  rep

let mk_cluster ?(seed = 5) ?(n = 3) () =
  let eng = Engine.create ~seed ~cores_per_node:4 ~num_nodes:n () in
  let net = Net.create eng in
  let nodes = List.init n Fun.id in
  let ctxs =
    Array.init n (fun i ->
        let store = Paxos.Store.create () in
        let cfg = Paxos.Replica.default_config ~me:i ~peers:nodes () in
        { rep = mk_replica net cfg store; store })
  in
  { eng; net; nodes; ctxs }

let run_for c seconds = Engine.run ~until:(Engine.clock c.eng +. seconds) c.eng

let current_leader c =
  List.find_opt
    (fun i ->
      Engine.node_alive c.eng i && Paxos.Replica.is_leader c.ctxs.(i).rep)
    c.nodes

let lease_holders c =
  List.filter
    (fun i ->
      Engine.node_alive c.eng i && Paxos.Replica.holds_lease c.ctxs.(i).rep)
    c.nodes

(* Steady state: the leader (and only the leader) holds a quorum lease,
   and its read index tracks commitment. *)
let lease_steady_state () =
  let c = mk_cluster () in
  run_for c 1.0;
  let l =
    match current_leader c with
    | Some l -> l
    | None -> Alcotest.fail "no leader elected"
  in
  Alcotest.(check bool) "leader holds lease" true
    (Paxos.Replica.holds_lease c.ctxs.(l).rep);
  Alcotest.(check (list int)) "only the leader holds it" [ l ]
    (lease_holders c);
  ignore
    (Engine.spawn c.eng ~node:l (fun () ->
         ignore (Paxos.Replica.propose c.ctxs.(l).rep "w1")));
  run_for c 0.5;
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "replica %d read_index covers the commit" i)
        true
        (Paxos.Replica.read_index c.ctxs.(i).rep >= 1))
    c.nodes

(* An isolated leader's lease must lapse once its grants (followers'
   clocks) run out — it can no longer serve local reads — and the
   healthy majority must elect a successor. *)
let lease_expires_in_partition () =
  let c = mk_cluster ~seed:7 () in
  run_for c 1.0;
  let l = Option.get (current_leader c) in
  List.iter (fun i -> if i <> l then Net.partition c.net l i) c.nodes;
  run_for c 0.5;
  Alcotest.(check bool) "isolated leader's lease lapsed" false
    (Paxos.Replica.holds_lease c.ctxs.(l).rep);
  let healthy_leader =
    List.exists
      (fun i -> i <> l && Paxos.Replica.is_leader c.ctxs.(i).rep)
      c.nodes
  in
  Alcotest.(check bool) "healthy side elected a successor" true healthy_leader;
  Net.heal_all c.net

(* Renewal racing leader change: through partition / heal churn, at no
   quiescent point may two live replicas both believe their lease is
   valid — the follower grants that fence foreign Prepares are the same
   grants that make the lease, so mutual exclusion is structural. *)
let no_two_leases_during_churn () =
  let c = mk_cluster ~seed:91 () in
  run_for c 1.0;
  let check_exclusion tag =
    match lease_holders c with
    | [] | [ _ ] -> ()
    | hs ->
      Alcotest.fail
        (Printf.sprintf "%s: %d live replicas hold a lease at once" tag
           (List.length hs))
  in
  for round = 1 to 3 do
    (match current_leader c with
    | Some l ->
      List.iter (fun i -> if i <> l then Net.partition c.net l i) c.nodes
    | None -> ());
    for step = 1 to 60 do
      run_for c 0.005;
      check_exclusion (Printf.sprintf "round %d partition step %d" round step)
    done;
    Net.heal_all c.net;
    for step = 1 to 60 do
      run_for c 0.005;
      check_exclusion (Printf.sprintf "round %d heal step %d" round step)
    done
  done;
  (* Liveness after the churn: someone reacquires a lease. *)
  let rec wait n =
    if lease_holders c = [] && n > 0 then begin
      run_for c 0.1;
      wait (n - 1)
    end
  in
  wait 30;
  Alcotest.(check bool) "a lease is held again after churn" true
    (lease_holders c <> [])

(* --- Stack level: an SMR cluster with real clients --- *)

module Stacks = Check.Stacks

let client_node = Stacks.client_node

let mk_smr ?(seed = 42) () : Stacks.deployed =
  Stacks.deploy ~seed ~conflict:Sched.Conflict.kv Stacks.Smr
    (R.Config.make ~workers:1 ~propose_interval:2e-4 ~replicas:Stacks.replicas ())
    (Apps.Kyoto.factory ())

(* Run [f] to completion in a client fiber, pumping the engine. *)
let in_fiber eng ~node f =
  let fin = ref false in
  ignore
    (Engine.spawn eng ~node ~name:"test-client" (fun () ->
         f ();
         fin := true));
  let steps = ref 0 in
  while (not !fin) && !steps < 600 do
    Engine.run ~until:(Engine.clock eng +. 0.5) eng;
    incr steps
  done;
  Alcotest.(check bool) "client fiber finished" true !fin

let smr_primary s =
  match Stacks.leader s with
  | Some p -> Smr.node p
  | None -> Alcotest.fail "no SMR primary"

let frontend_count eng ~node name =
  Obs.Metric.value
    (Obs.counter (Engine.obs eng) ~subsystem:"frontend"
       ~labels:[ ("node", string_of_int node) ]
       name)

(* Fencing after primary isolation: a primary cut off from its peers
   (client links stay up) loses its lease, so a read aimed at it must
   not return pre-partition state — the client ends up at the new
   primary and sees the newer committed write. *)
let fencing_after_primary_isolation () =
  let s = mk_smr ~seed:17 () in
  let cl = R.Client.create s.rpc ~me:client_node ~replicas:Stacks.replicas in
  in_fiber s.eng ~node:client_node (fun () ->
      Alcotest.(check (option string)) "v1 acked" (Some "OK")
        (R.Client.call cl "SET k v1"));
  let stale = smr_primary s in
  List.iter
    (fun i -> if i <> stale then Net.partition s.net stale i)
    Stacks.replicas;
  Engine.run ~until:(Engine.clock s.eng +. 0.5) s.eng;
  (* A second client commits v2 on the healthy side. *)
  let cl2 = R.Client.create s.rpc ~me:client_node ~replicas:Stacks.replicas in
  in_fiber s.eng ~node:client_node (fun () ->
      Alcotest.(check (option string)) "v2 acked on healthy side" (Some "OK")
        (R.Client.call cl2 "SET k v2"));
  (* Read aimed at the stale primary: fenced local path, no quorum, so
     the client rotates until the new primary answers — never v1. *)
  let got = ref None in
  in_fiber s.eng ~node:client_node (fun () ->
      got := R.Client.query ~on:stale cl "GET k");
  Alcotest.(check (option string)) "read fenced: sees v2, not v1"
    (Some "v2") !got;
  Net.heal_all s.net

(* Quorum read from a secondary: a non-primary replica serves a
   linearizable read via a majority read-index round — no redirect, no
   consensus slot — and the obs counter proves the route taken. *)
let quorum_read_from_secondary () =
  let s = mk_smr ~seed:23 () in
  let cl = R.Client.create s.rpc ~me:client_node ~replicas:Stacks.replicas in
  let primary = smr_primary s in
  let secondary = List.find (fun i -> i <> primary) Stacks.replicas in
  in_fiber s.eng ~node:client_node (fun () ->
      Alcotest.(check (option string)) "write acked" (Some "OK")
        (R.Client.call cl "SET q v7");
      Alcotest.(check (option string)) "secondary serves latest value"
        (Some "v7")
        (R.Client.query ~on:secondary cl "GET q"));
  Alcotest.(check bool) "served via the quorum-read route" true
    (frontend_count s.eng ~node:secondary "reads_fast_quorum" > 0)

(* Lease read on the primary: served locally under the lease, counted. *)
let lease_read_on_primary () =
  let s = mk_smr ~seed:29 () in
  let cl = R.Client.create s.rpc ~me:client_node ~replicas:Stacks.replicas in
  let primary = smr_primary s in
  in_fiber s.eng ~node:client_node (fun () ->
      Alcotest.(check (option string)) "write acked" (Some "OK")
        (R.Client.call cl "SET p v9");
      Alcotest.(check (option string)) "primary serves latest value"
        (Some "v9")
        (R.Client.query ~on:primary cl "GET p"));
  Alcotest.(check bool) "served via the lease route" true
    (frontend_count s.eng ~node:primary "reads_fast_lease" > 0)

(* Rex: the primary's fast-path read is gated on commit of the observed
   speculative cut, so a query right after an acked write sees it. *)
let rex_reads_latest () =
  let cfg = R.Cluster.config ~workers:2 ~propose_interval:2e-4 () in
  let cluster = R.Cluster.launch ~seed:11 cfg (Apps.Kyoto.factory ()) in
  let eng = R.Cluster.engine cluster in
  let cl = R.Cluster.client cluster in
  in_fiber eng
    ~node:(R.Cluster.client_node cluster)
    (fun () ->
      for i = 1 to 5 do
        let v = Printf.sprintf "r%d" i in
        Alcotest.(check (option string))
          (Printf.sprintf "write %d acked" i)
          (Some "OK")
          (R.Client.call cl ("SET rk " ^ v));
        Alcotest.(check (option string))
          (Printf.sprintf "read %d sees it" i)
          (Some v)
          (R.Client.query cl "GET rk")
      done)

(* --- Rex: the primary's per-read release gate ---

   A lease read on the Rex primary runs against speculative state and is
   released once the recorded prefix it observed commits.  The harness
   cuts the primary off from its peers so that a write it executes
   cannot commit, while a long lease (well inside the election timeout)
   keeps it serving local reads.  Kyoto plus one query, [SGET], that
   takes a semaphore around a [GET]. *)

let sem_kyoto : R.App.factory =
 fun api ->
  let sem = R.Api.sem api "gate.sem" 1 in
  let app = Apps.Kyoto.factory () api in
  let query ~request =
    match String.split_on_char ' ' request with
    | [ "SGET"; key ] ->
      Rexsync.Sem.acquire sem;
      Fun.protect
        ~finally:(fun () -> Rexsync.Sem.release sem)
        (fun () -> app.R.App.query ~request:("GET " ^ key))
    | _ -> app.R.App.query ~request
  in
  { app with R.App.query }

type gate = {
  gc : R.Cluster.t;
  geng : Engine.t;
  gp : R.Server.t;  (* the primary *)
  gnode : int;
}

let gate_cluster ~seed =
  let cfg =
    R.Cluster.config ~workers:2 ~lease_duration:0.2 ~election_timeout:0.5 ()
  in
  let gc = R.Cluster.launch ~seed cfg sem_kyoto in
  let geng = R.Cluster.engine gc in
  let cl = R.Cluster.client gc in
  in_fiber geng ~node:(R.Cluster.client_node gc) (fun () ->
      List.iter
        (fun req ->
          Alcotest.(check (option string)) req (Some "OK") (R.Client.call cl req))
        [ "SET ka v1"; "SET kb w1" ]);
  R.Cluster.run_for gc 0.05;
  let gp = Option.get (R.Cluster.primary gc) in
  { gc; geng; gp; gnode = R.Server.node gp }

let isolate g =
  List.iter
    (fun i -> if i <> g.gnode then Net.partition (R.Cluster.net g.gc) g.gnode i)
    (R.Cluster.replica_nodes g.gc)

let uncommitted g =
  not (Trace.Cut.leq (R.Server.executed_cut g.gp) (R.Server.committed_cut g.gp))

(* Submit a write straight to the primary (no client retry can re-run it
   elsewhere) and let it execute; [acked] holds its fate once known. *)
let execute_isolated g request =
  let acked = ref None in
  R.Server.submit g.gp request (fun r -> acked := Some r);
  R.Cluster.run_for g.gc 2e-3;
  Alcotest.(check bool) "the write executed, uncommitted" true (uncommitted g);
  acked

(* A read from the client node, aimed at the primary, one attempt.
   [answer] gets (latency, reply, whether the write was acked by then). *)
let read_primary g ?(acked = ref None) request =
  let answer = ref None in
  let cl = R.Cluster.client g.gc in
  ignore
    (Engine.spawn g.geng ~node:(R.Cluster.client_node g.gc) (fun () ->
         let t0 = Engine.now () in
         let r = R.Client.query ~on:g.gnode ~retries:1 ~timeout:5.0 cl request in
         answer := Some (Engine.now () -. t0, r, !acked <> None)));
  answer

(* Every read went the lease route (not a quorum round, not the log). *)
let all_via_lease g n =
  Alcotest.(check int) "reads served under the lease" n
    (frontend_count g.geng ~node:g.gnode "reads_fast_lease");
  Alcotest.(check int) "no quorum rounds" 0
    (frontend_count g.geng ~node:g.gnode "quorum_read_rounds")

let run_until g cond =
  let steps = ref 0 in
  while (not (cond ())) && !steps < 400 do
    R.Cluster.run_for g.gc 0.01;
    incr steps
  done

(* A read of a key with an executed but uncommitted write is held until
   that write commits, then answers with it. *)
let rex_gate_holds_uncommitted_key () =
  let g = gate_cluster ~seed:31 in
  isolate g;
  let acked = execute_isolated g "SET ka v2" in
  let read = read_primary g ~acked "GET ka" in
  R.Cluster.run_for g.gc 0.05;
  Alcotest.(check bool) "held while the write is uncommitted" true
    (!read = None && uncommitted g);
  all_via_lease g 1;
  Net.heal_all (R.Cluster.net g.gc);
  run_until g (fun () -> !read <> None);
  match !read with
  | Some (_, got, acked_first) ->
    Alcotest.(check (option string)) "answers with the write" (Some "v2") got;
    Alcotest.(check bool) "not before the write committed" true acked_first;
    Alcotest.(check bool) "the write committed" true
      (!acked = Some (Some "OK"))
  | None -> Alcotest.fail "read never answered"

(* The primary is isolated and demoted before the write commits: the
   held read is dropped and never answers with the rolled-back value. *)
let rex_gate_drops_on_demotion () =
  let g = gate_cluster ~seed:37 in
  isolate g;
  let acked = execute_isolated g "SET ka v2" in
  let read = read_primary g "GET ka" in
  R.Cluster.run_for g.gc 0.01;
  all_via_lease g 1;
  (* the healthy side elects a successor; healing lets the old primary
     learn of it and demote *)
  R.Cluster.run_for g.gc 1.0;
  Alcotest.(check bool) "a successor was elected" true
    (List.exists
       (fun s -> R.Server.node s <> g.gnode && R.Server.is_primary s)
       (Array.to_list (R.Cluster.servers g.gc)));
  Net.heal_all (R.Cluster.net g.gc);
  run_until g (fun () -> !read <> None);
  Alcotest.(check bool) "the old primary demoted" false
    (R.Server.is_primary g.gp);
  Alcotest.(check bool) "the write was dropped" true (!acked = Some None);
  match !read with
  | Some (_, got, _) ->
    Alcotest.(check (option string)) "the read was dropped, not answered"
      None got
  | None -> Alcotest.fail "read never resolved"

(* A key whose slice's last release is committed answers at once, while
   another slice holds an uncommitted write. *)
let rex_gate_clean_key_no_wait () =
  let g = gate_cluster ~seed:41 in
  isolate g;
  let acked = execute_isolated g "SET ka v2" in
  let read = read_primary g ~acked "GET kb" in
  R.Cluster.run_for g.gc 0.02;
  (match !read with
  | Some (lat, got, acked_first) ->
    Alcotest.(check (option string)) "the committed value" (Some "w1") got;
    Alcotest.(check bool) "no commit wait" true (lat < 5e-3 && not acked_first)
  | None -> Alcotest.fail "a clean key waited for another slice's commit");
  Alcotest.(check bool) "the other write is still uncommitted" true
    (uncommitted g);
  all_via_lease g 1;
  Net.heal_all (R.Cluster.net g.gc)

(* Queries whose writers are not tracked keep the whole-trace gate: a
   read of no primitive (kyoto COUNT) and one under a semaphore both
   wait for the uncommitted write on an unrelated slice. *)
let rex_gate_untracked_waits () =
  let g = gate_cluster ~seed:43 in
  isolate g;
  let acked = execute_isolated g "SET kc x1" in
  let count = read_primary g ~acked "COUNT" in
  let sget = read_primary g ~acked "SGET kb" in
  R.Cluster.run_for g.gc 0.05;
  Alcotest.(check bool) "both held while the write is uncommitted" true
    (!count = None && !sget = None);
  all_via_lease g 2;
  Net.heal_all (R.Cluster.net g.gc);
  run_until g (fun () -> !count <> None && !sget <> None);
  let check name expect = function
    | Some (_, got, acked_first) ->
      Alcotest.(check (option string)) name (Some expect) got;
      Alcotest.(check bool) (name ^ ": not before the commit") true acked_first
    | None -> Alcotest.failf "%s never answered" name
  in
  check "COUNT" "3" !count;
  check "SGET" "w1" !sget

(* QCheck: after any acked write sequence, a fast-path read — on the
   primary or any secondary — observes the latest released write to
   that key.  Ops are derived from the generated seed so each case is a
   fresh deterministic cluster. *)
let prop_reads_see_latest_write =
  QCheck.Test.make ~name:"fast-path reads observe the latest released write"
    ~count:4
    QCheck.(int_range 0 1000)
    (fun case_seed ->
      let s = mk_smr ~seed:(1000 + case_seed) () in
      let cl = R.Client.create s.rpc ~me:client_node ~replicas:Stacks.replicas in
      let rng = Rng.create (case_seed + 1) in
      let model = Hashtbl.create 8 in
      let ok = ref true in
      in_fiber s.eng ~node:client_node (fun () ->
          for i = 0 to 11 do
            let key = Printf.sprintf "pk%d" (Rng.int rng 4) in
            if Rng.float rng 1.0 < 0.5 then begin
              let v = Printf.sprintf "c%d" i in
              match R.Client.call cl (Printf.sprintf "SET %s %s" key v) with
              | Some _ -> Hashtbl.replace model key v
              | None -> ()  (* unacked: outcome ambiguous, skip *)
            end
            else begin
              let on = Rng.pick rng Stacks.replicas in
              let expect =
                Option.value (Hashtbl.find_opt model key) ~default:"NOTFOUND"
              in
              match R.Client.query ~on cl ("GET " ^ key) with
              | Some got -> if got <> expect then ok := false
              | None -> ()  (* read timed out: no value released *)
            end
          done);
      !ok)

let suite =
  [
    Alcotest.test_case "lease: steady state" `Quick lease_steady_state;
    Alcotest.test_case "lease: expires in partition" `Quick
      lease_expires_in_partition;
    Alcotest.test_case "lease: no two holders during churn" `Quick
      no_two_leases_during_churn;
    Alcotest.test_case "fencing after primary isolation" `Quick
      fencing_after_primary_isolation;
    Alcotest.test_case "quorum read from a secondary" `Quick
      quorum_read_from_secondary;
    Alcotest.test_case "lease read on the primary" `Quick
      lease_read_on_primary;
    Alcotest.test_case "rex: reads see latest write" `Quick rex_reads_latest;
    Alcotest.test_case "rex gate: held until the write commits" `Quick
      rex_gate_holds_uncommitted_key;
    Alcotest.test_case "rex gate: dropped on demotion" `Quick
      rex_gate_drops_on_demotion;
    Alcotest.test_case "rex gate: clean key answers at once" `Quick
      rex_gate_clean_key_no_wait;
    Alcotest.test_case "rex gate: untracked queries wait" `Quick
      rex_gate_untracked_waits;
    QCheck_alcotest.to_alcotest prop_reads_see_latest_write;
  ]
