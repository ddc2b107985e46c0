(* Every metric the benchmark declares, with its unit.  The end-to-end
   set is printed (and gated) on every workload; the per-layer set comes
   from the traced run.  A layer a workload never calls reads 0 there:
   that workload is the control on which the layer's metric must not
   move. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("p50_ms", "ms");
    ("p99_ms", "ms");
    ("read_p50_ms", "ms");
    ("read_p99_ms", "ms");
    ("write_p50_ms", "ms");
    ("write_p99_ms", "ms");
    ("slo_rate_rps", "req/s");
    ("throughput_rps", "req/s");
  ]

(* Printed with the end-to-end set but not in the JSON line: it is 0 on
   a healthy run, so it cannot carry a relative bound.  The JSON's
   [failed] count carries it instead. *)
let report_only = [ ("failed_frac", "ratio") ]

let per_layer =
  [
    (* simulator speed: from the untraced repetition of the traced run.
       Untraced runs print it too, from the best of their repetitions.
       It is not gated: on the 2-core VM the benchmark was tuned on, the
       host's speed drifted by 30-50% over minutes (README,
       "Steadiness"). *)
    ("wall_rps", "req/s");
    (* request stages, virtual time, keyed by (client, seq) *)
    ("rex.client.to_leader_ms.p50", "ms");
    ("rex.client.to_leader_ms.p99", "ms");
    ("rex.client.attempts_per_req", "msg/req");
    ("rex.order.commit_ms.p50", "ms");
    ("rex.order.commit_ms.p99", "ms");
    ("rex.client.reply_ms.p99", "ms");
    ("rex.frontend.lease_read_frac", "ratio");
    ("bench.late_arrivals", "count");
    (* registry counters per completed request *)
    ("paxos.commit_ms.p99", "ms");
    ("paxos.reqs_per_proposal", "req/prop");
    ("net.msgs_per_req", "msg/req");
    ("net.bytes_per_req", "B/req");
    ("sim.events_per_req", "ev/req");
    ("sim.wall_ns_per_event", "ns");
    ("sim.cpu_wait_ms", "ms/req");
    ("sched.barrier_stalls_per_req", "1/req");
    (* execute, record and replay *)
    ("apps.exec_ms.p50", "ms");
    ("apps.exec_wall_us", "us");
    ("rexsync.events_per_req", "ev/req");
    ("rexsync.edges_per_req", "edge/req");
    ("trace.bytes_per_req", "B/req");
    ("trace.resident_events", "count");
    ("gc.heap_peak_mb", "MB");
    ("rexsync.replay_waits_per_req", "1/req");
    ("rex.flow_stall_s", "s");
    ("rex.replay_lag_ms.p99", "ms");
    (* the record path on real domains (leveldb-closed's traced run) *)
    ("par.record_rps", "req/s");
    ("par.domain_busy_frac", "ratio");
    ("par.tasks_per_req", "task/req");
    ("par.queue_depth_max", "count");
    ("par.scaling", "ratio");
    ("rexsync.record_overhead", "ratio");
    (* self time per request, from the benchmark's spans *)
    ("self.client_ms", "ms");
    ("self.order_ms", "ms");
    ("self.exec_ms", "ms");
    (* public-function cost, bechamel *)
    ("micro.envelope_codec_ns", "ns");
    ("micro.batch_codec_ns", "ns");
    ("micro.trace_delta_ns", "ns");
    ("micro.vclock_join_ns", "ns");
    ("micro.paxos_accept_ns", "ns");
    ("micro.sim_spawn_sleep_ns", "ns");
    (* tracing cost: untraced minus traced wall_rps in the same process *)
    ("bench.tracing_overhead_rps", "req/s");
  ]

let unit_of name =
  match List.assoc_opt name (end_to_end @ report_only @ per_layer) with
  | Some u -> u
  | None -> invalid_arg ("Catalog.unit_of: undeclared metric " ^ name)
