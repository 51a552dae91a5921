(* The resilient serving layer: arrival processes, backoff, circuit
   breakers, instance pools with budget degradation, the verified-load
   admission gate, the scheduler's typed budget fault, and the
   end-to-end campaign determinism contract. *)

module Prng = Hfi_util.Prng
module Fault = Hfi_util.Fault
module Strategy = Hfi_sfi.Strategy
module Arrival = Hfi_serving.Arrival
module Backoff = Hfi_serving.Backoff
module Breaker = Hfi_serving.Breaker
module Admission = Hfi_serving.Admission
module Instance_pool = Hfi_serving.Instance_pool
module Chaos = Hfi_serving.Chaos
module Server = Hfi_serving.Server
module Scheduler = Hfi_runtime.Scheduler
module Instance = Hfi_wasm.Instance
module Program = Hfi_isa.Program
module Instr = Hfi_isa.Instr
module Reg = Hfi_isa.Reg

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Arrival processes -------------------------------------------- *)

let test_arrival_deterministic_and_ordered () =
  let gen seed process =
    Arrival.generate ~rng:(Prng.create ~seed) ~horizon_s:10.0 process
  in
  List.iter
    (fun process ->
      let a = gen 5 process in
      check_bool "same seed, same stream" true (a = gen 5 process);
      check_bool "different seed, different stream" true (a <> gen 6 process);
      check_bool "non-empty at these rates" true (a <> []);
      let rec ordered last = function
        | [] -> true
        | t :: rest -> t > last && t < 10.0 && ordered t rest
      in
      check_bool "strictly increasing, within horizon" true (ordered (-1.0) a))
    [
      Arrival.Poisson { rate = 50.0 };
      Arrival.Bursty
        { base_rate = 20.0; burst_rate = 120.0; mean_on_s = 0.5; mean_off_s = 0.5 };
    ]

let test_arrival_rate_calibration () =
  (* The empirical rate of a long Poisson stream tracks the nominal
     rate, and mean_rate reports the modulated average for bursty. *)
  let n =
    List.length
      (Arrival.generate ~rng:(Prng.create ~seed:1) ~horizon_s:200.0
         (Arrival.Poisson { rate = 50.0 }))
  in
  check_bool "poisson empirical rate within 10%" true (abs (n - 10_000) < 1000);
  let b =
    Arrival.Bursty { base_rate = 10.0; burst_rate = 90.0; mean_on_s = 1.0; mean_off_s = 1.0 }
  in
  check_bool "bursty mean rate is the phase average" true
    (abs_float (Arrival.mean_rate b -. 50.0) < 1e-9)

(* --- Backoff ------------------------------------------------------ *)

let test_backoff_bounds () =
  let p = { Backoff.base_s = 0.010; multiplier = 2.0; max_s = 0.1; jitter = 0.5 } in
  check_bool "ceiling doubles" true
    (Backoff.ceiling p ~attempt:1 = 0.010
    && Backoff.ceiling p ~attempt:2 = 0.020
    && Backoff.ceiling p ~attempt:3 = 0.040);
  check_bool "ceiling capped" true (Backoff.ceiling p ~attempt:10 = 0.1);
  check_bool "attempt 0 rejected" true
    (match Backoff.ceiling p ~attempt:0 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let rng = Prng.create ~seed:3 in
  let ok =
    List.init 200 (fun i ->
        let attempt = 1 + (i mod 6) in
        let cap = Backoff.ceiling p ~attempt in
        let d = Backoff.delay p ~rng ~attempt in
        d >= cap *. (1.0 -. p.Backoff.jitter) && d <= cap)
  in
  check_bool "every delay within the jitter band" true (List.for_all Fun.id ok);
  let replay seed =
    let rng = Prng.create ~seed in
    List.init 10 (fun i -> Backoff.delay p ~rng ~attempt:(1 + i))
  in
  check_bool "schedule replayable from seed" true (replay 9 = replay 9)

(* --- Circuit breaker ---------------------------------------------- *)

let test_breaker_state_machine () =
  let p = { Breaker.failure_threshold = 3; cooldown_s = 1.0; half_open_successes = 2 } in
  let b = Breaker.create p in
  check_bool "starts closed" true (Breaker.state_name b = "closed");
  (* below the threshold: still closed; a success resets the count *)
  Breaker.record_failure b ~now:0.0;
  Breaker.record_failure b ~now:0.1;
  Breaker.record_success b ~now:0.2;
  Breaker.record_failure b ~now:0.3;
  Breaker.record_failure b ~now:0.4;
  check_bool "still closed below threshold" true (Breaker.state_name b = "closed");
  Breaker.record_failure b ~now:0.5;
  check_bool "trips at threshold" true (Breaker.state_name b = "open");
  check_int "one trip" 1 (Breaker.trips b);
  check_bool "rejects while open" true (Breaker.decide b ~now:1.0 = Breaker.Reject);
  (* cooldown elapsed: exactly one probe allowed at a time *)
  check_bool "half-open probe after cooldown" true
    (Breaker.decide b ~now:1.6 = Breaker.Allow_probe);
  check_bool "second concurrent probe rejected" true
    (Breaker.decide b ~now:1.6 = Breaker.Reject);
  Breaker.record_success b ~now:1.7;
  check_bool "another probe allowed" true (Breaker.decide b ~now:1.8 = Breaker.Allow_probe);
  Breaker.record_success b ~now:1.9;
  check_bool "closes after enough probe successes" true (Breaker.state_name b = "closed");
  check_bool "closed allows" true (Breaker.decide b ~now:2.0 = Breaker.Allow);
  (* re-trip, then a failed probe re-opens immediately *)
  Breaker.record_failure b ~now:3.0;
  Breaker.record_failure b ~now:3.1;
  Breaker.record_failure b ~now:3.2;
  check_bool "re-tripped" true (Breaker.state_name b = "open");
  check_bool "probe after second cooldown" true
    (Breaker.decide b ~now:4.3 = Breaker.Allow_probe);
  Breaker.record_failure b ~now:4.4;
  check_bool "failed probe re-opens" true (Breaker.state_name b = "open");
  check_int "three trips total" 3 (Breaker.trips b);
  check_bool "rejections counted" true (Breaker.rejected b > 0)

(* --- Instance pool ------------------------------------------------ *)

let test_pool_warm_cold_and_degradation () =
  let policy = { Instance_pool.keep_alive_s = 1.0; hfi_budget = 2 } in
  let pool = Instance_pool.create ~policy () in
  (* first touch is cold, reuse within keep-alive is warm *)
  let a = Instance_pool.acquire pool ~now:0.0 ~tenant:0 ~preferred:Strategy.Hfi in
  check_bool "first acquire is cold" false a.Instance_pool.warm;
  Instance_pool.release pool ~now:0.1 ~tenant:0;
  let b = Instance_pool.acquire pool ~now:0.5 ~tenant:0 ~preferred:Strategy.Hfi in
  check_bool "reuse within keep-alive is warm" true b.Instance_pool.warm;
  check_bool "warm reuse keeps the strategy" true
    (b.Instance_pool.strategy = Strategy.Hfi);
  Instance_pool.release pool ~now:0.5 ~tenant:0;
  (* a lapsed keep-alive is cold again *)
  let c = Instance_pool.acquire pool ~now:5.0 ~tenant:0 ~preferred:Strategy.Hfi in
  check_bool "lapsed keep-alive is cold" false c.Instance_pool.warm;
  Instance_pool.release pool ~now:5.0 ~tenant:0;
  (* budget: two resident HFI instances; the third cold start degrades *)
  let d = Instance_pool.acquire pool ~now:5.1 ~tenant:1 ~preferred:Strategy.Hfi in
  Instance_pool.release pool ~now:5.1 ~tenant:1;
  check_bool "second tenant still HFI" true (d.Instance_pool.strategy = Strategy.Hfi);
  let e = Instance_pool.acquire pool ~now:5.2 ~tenant:2 ~preferred:Strategy.Hfi in
  check_bool "third cold start degrades" true e.Instance_pool.degraded;
  check_bool "degrades to bounds checks" true
    (e.Instance_pool.strategy = Strategy.Bounds_checks);
  check_int "degradation counted" 1 (Instance_pool.degraded pool);
  (* eviction forces the next acquire cold *)
  Instance_pool.release pool ~now:5.2 ~tenant:2;
  Instance_pool.evict pool ~tenant:0;
  let f = Instance_pool.acquire pool ~now:5.3 ~tenant:0 ~preferred:Strategy.Hfi in
  check_bool "evicted tenant is cold" false f.Instance_pool.warm;
  check_int "eviction counted" 1 (Instance_pool.evictions pool);
  check_bool "software preference never degrades" true
    (let g =
       Instance_pool.acquire pool ~now:5.4 ~tenant:3 ~preferred:Strategy.Bounds_checks
     in
     (not g.Instance_pool.degraded) && g.Instance_pool.strategy = Strategy.Bounds_checks)

(* --- Verified-load admission gate --------------------------------- *)

let test_admission_gate_admits_and_caches () =
  let gate = Admission.create () in
  let w = (List.hd Hfi_workloads.Faas_workloads.all).Hfi_workloads.Faas_workloads.workload in
  check_bool "catalog kernel admitted" true
    (Admission.check gate ~strategy:Strategy.Hfi w = Admission.Admitted);
  check_int "first check is a miss" 1 (Admission.misses gate);
  check_bool "re-check admitted" true
    (Admission.check gate ~strategy:Strategy.Hfi w = Admission.Admitted);
  check_int "verdict served from the cache" 1 (Admission.hits gate);
  check_int "no second verification" 1 (Admission.misses gate);
  (* same module under a different strategy is a distinct cache key *)
  ignore (Admission.check gate ~strategy:Strategy.Bounds_checks w);
  check_int "strategy is part of the key" 2 (Admission.misses gate)

(* The gate memoizes "reference lowering -> compiled fingerprint" and
   optimizes only on a miss, so it relies on this identity: the
   reference lowering, optimized with the same [conv] whenever the
   optimizer switch is on, is exactly what [build_program] compiles. *)
let test_admission_memo_identity () =
  let rng = Hfi_util.Prng.create ~seed:0x5EED in
  let workloads =
    List.map (fun (f : Hfi_workloads.Faas_workloads.t) -> f.workload)
      Hfi_workloads.Faas_workloads.all
    @ List.map snd Hfi_workloads.Sightglass.all
    @ List.init 50 (fun _ -> Hfi_wasm.Wasm_compile.workload (Hfi_experiments.Fuzz.generate rng))
  in
  check_int "4 + 16 + 50 workloads" 70 (List.length workloads);
  List.iter
    (fun enabled ->
      Hfi_opt.Driver.with_enabled enabled (fun () ->
          List.iter
            (fun (w : Instance.workload) ->
              List.iter
                (fun strategy ->
                  let heap_size = Instance.round_to_wasm_page w.Instance.heap_bytes in
                  let reference = Instance.build_program ~strategy ~optimize:false w in
                  let memoized =
                    if enabled then
                      Hfi_opt.Driver.optimize (Instance.opt_conv ~strategy ~heap_size) reference
                    else reference
                  in
                  Alcotest.(check string)
                    (Printf.sprintf "%s/%s/opt=%b" w.Instance.name (Strategy.to_string strategy)
                       enabled)
                    (Program.fingerprint (Instance.build_program ~strategy w))
                    (Program.fingerprint memoized))
                Strategy.all)
            workloads))
    [ true; false ]

let test_admission_memo_keys_optimizer_switch () =
  let gate = Admission.create () in
  let w = (List.hd Hfi_workloads.Faas_workloads.all).Hfi_workloads.Faas_workloads.workload in
  let check () = Admission.check gate ~strategy:Strategy.Bounds_checks w in
  check_bool "optimized build admitted" true
    (Hfi_opt.Driver.with_enabled true check = Admission.Admitted);
  check_bool "reference build admitted" true
    (Hfi_opt.Driver.with_enabled false check = Admission.Admitted);
  check_int "switch off is a distinct compiled program" 2 (Admission.misses gate);
  check_int "no hit across the switch" 0 (Admission.hits gate)

let test_admission_hit_means_compiled_program_decided () =
  (* Two reference programs that differ only by a dead store DCE
     deletes: the second is a new memo key, but its compiled program is
     already decided, so it counts as a hit, exactly as before the memo. *)
  let base = (List.hd Hfi_workloads.Faas_workloads.all).Hfi_workloads.Faas_workloads.workload in
  let with_prefix movs =
    {
      base with
      Instance.build =
        (fun c ->
          List.iter (fun v -> Hfi_wasm.Codegen.emit c (Instr.Mov (Reg.R10, Instr.Imm v))) movs;
          base.Instance.build c);
    }
  in
  let plain = with_prefix [ 0 ] and dead_mov = with_prefix [ 7; 0 ] in
  let strategy = Strategy.Bounds_checks in
  Hfi_opt.Driver.with_enabled true (fun () ->
      check_bool "reference programs differ" true
        (Program.fingerprint (Instance.build_program ~strategy ~optimize:false plain)
        <> Program.fingerprint (Instance.build_program ~strategy ~optimize:false dead_mov));
      check_bool "compiled programs agree" true
        (Program.fingerprint (Instance.build_program ~strategy plain)
        = Program.fingerprint (Instance.build_program ~strategy dead_mov));
      let gate = Admission.create () in
      check_bool "plain admitted" true (Admission.check gate ~strategy plain = Admission.Admitted);
      check_bool "dead-mov variant admitted" true
        (Admission.check gate ~strategy dead_mov = Admission.Admitted);
      check_int "one verification" 1 (Admission.misses gate);
      check_int "decided compiled program is a hit" 1 (Admission.hits gate))

(* A serving campaign lowers each tenant's module once and admits the
   prebuilt image on every request; that must be indistinguishable from
   a one-off [check] that lowers the workload each time: the same
   decision and the same hit/miss/persisted counts after every call,
   across strategies and both optimizer settings on one checker. *)
let test_admission_image_equivalence () =
  let workloads =
    List.map (fun (f : Hfi_workloads.Faas_workloads.t) -> f.workload)
      Hfi_workloads.Faas_workloads.all
    @ [ Admission.poison_workload ]
  in
  (* images are built once per (workload, strategy), before either
     optimizer setting, so the switch must be read at check time *)
  let images =
    List.map
      (fun strategy -> (strategy, List.map (Admission.image ~strategy) workloads))
      Strategy.all
  in
  let by_check = Admission.create () and by_image = Admission.create () in
  let state gate d = (d, Admission.hits gate, Admission.misses gate, Admission.persisted gate) in
  List.iter
    (fun enabled ->
      Hfi_opt.Driver.with_enabled enabled (fun () ->
          List.iter
            (fun strategy ->
              List.iter2
                (fun (w : Instance.workload) image ->
                  for round = 1 to 2 do
                    let expected =
                      state by_check (Admission.check by_check ~strategy w)
                    in
                    let got = state by_image (Admission.check_image by_image image) in
                    check_bool
                      (Printf.sprintf "%s/%s/opt=%b round %d" w.Instance.name
                         (Strategy.to_string strategy) enabled round)
                      true (expected = got)
                  done)
                workloads (List.assoc strategy images))
            Strategy.all))
    [ true; false ];
  check_bool "both decided something" true (Admission.misses by_image > 0);
  check_bool "and hit afterwards" true (Admission.hits by_image > 0)

(* The memo is content-addressed, not name-addressed: a tenant whose
   workload shares a name with another but lowers to a different
   reference program gets its own memo key, and so its own compiled
   program and verdict. *)
let test_admission_image_keys_on_content () =
  let base = (List.hd Hfi_workloads.Faas_workloads.all).Hfi_workloads.Faas_workloads.workload in
  let strategy = Strategy.Bounds_checks in
  let dead_mov =
    {
      base with
      Instance.build =
        (fun c ->
          Hfi_wasm.Codegen.emit c (Instr.Mov (Reg.R10, Instr.Imm 7));
          base.Instance.build c);
    }
  in
  let escaping =
    {
      base with
      Instance.build =
        (fun c ->
          Admission.poison_workload.Instance.build c;
          base.Instance.build c);
    }
  in
  Hfi_opt.Driver.with_enabled false (fun () ->
      let gate = Admission.create () in
      let admit w = Admission.check_image gate (Admission.image ~strategy w) in
      check_bool "base admitted" true (admit base = Admission.Admitted);
      check_bool "same-name variant admitted" true (admit dead_mov = Admission.Admitted);
      check_int "the variant is verified, not served from the base's entry" 2
        (Admission.misses gate);
      check_int "no hit across reference programs" 0 (Admission.hits gate);
      check_bool "same-name escaping variant rejected" true
        (match admit escaping with
        | Admission.Rejected { verdict; _ } -> verdict = "unsafe"
        | Admission.Admitted -> false);
      check_bool "base still admitted from its own entry" true (admit base = Admission.Admitted);
      check_int "one hit" 1 (Admission.hits gate))

let test_admission_gate_rejects_poison_before_execution () =
  (* The acceptance property: a region-escape module is refused under
     every strategy, and the gate never instantiates it — its init hook
     (which only instantiation runs) must never fire. *)
  let init_calls = ref 0 in
  let poison = Admission.poison_workload in
  let traced =
    {
      poison with
      Hfi_wasm.Instance.init =
        (fun mem ~heap_base ->
          incr init_calls;
          poison.Hfi_wasm.Instance.init mem ~heap_base);
    }
  in
  List.iter
    (fun strategy ->
      match Admission.check (Admission.create ()) ~strategy traced with
      | Admission.Admitted ->
        Alcotest.failf "poison admitted under %s" (Strategy.to_string strategy)
      | Admission.Rejected { verdict; _ } ->
        check_bool "refused as unsafe" true (verdict = "unsafe"))
    [ Strategy.Hfi; Strategy.Guard_pages; Strategy.Bounds_checks ];
  check_int "never instantiated: init never ran" 0 !init_calls

(* --- Scheduler budget fault (typed, not an exception) ------------- *)

let test_scheduler_budget_exhaustion_is_typed () =
  let sched = Scheduler.create () in
  let w = Hfi_workloads.Sightglass.find "sieve" in
  Scheduler.spawn_instance sched ~name:"a"
    (Hfi_wasm.Instance.instantiate ~strategy:Strategy.Hfi w);
  Scheduler.spawn_instance sched ~name:"b"
    (Hfi_wasm.Instance.instantiate ~strategy:Strategy.Hfi w);
  (match Scheduler.run ~quantum:50 ~max_switches:3 sched with
  | Ok () -> Alcotest.fail "three switches cannot finish two sieves"
  | Error f -> (
    match f.Fault.kind with
    | Fault.Resource_exhausted { resource; limit } ->
      check_bool "names the budget" true (resource = "context-switch budget");
      check_int "carries the limit" 3 limit;
      check_bool "not transient" false (Fault.is_transient f);
      check_bool "not modeled behavior" false (Fault.is_modeled f)
    | _ -> Alcotest.failf "wrong fault kind: %s" (Fault.to_string f)));
  check_bool "processes survive exhaustion" true
    (Scheduler.status sched ~name:"a" = Scheduler.Ready
    || Scheduler.status sched ~name:"a" = Scheduler.Finished);
  (* a fresh budget resumes from the saved state and completes *)
  check_bool "re-run completes" true (Scheduler.run ~quantum:700 sched = Ok ());
  check_int "result correct after resume" 1028 (Scheduler.result sched ~name:"a");
  check_int "other process too" 1028 (Scheduler.result sched ~name:"b")

let test_scheduler_spawn_many () =
  (* The array+name-table scheduler handles a serving-sized process
     count; names stay in spawn order and duplicate names keep
     first-spawn-wins lookup semantics. *)
  let sched = Scheduler.create () in
  let w = Hfi_workloads.Sightglass.find "fib2" in
  let n = 64 in
  for i = 0 to n - 1 do
    Scheduler.spawn_instance sched
      ~name:(Printf.sprintf "p%02d" i)
      (Hfi_wasm.Instance.instantiate ~strategy:Strategy.Bounds_checks w)
  done;
  check_int "all registered" n (List.length (Scheduler.processes sched));
  check_bool "spawn order preserved" true
    (Scheduler.processes sched
    = List.init n (fun i -> Printf.sprintf "p%02d" i));
  check_bool "run completed" true (Scheduler.run ~quantum:500 sched = Ok ());
  check_int "first result" 2584 (Scheduler.result sched ~name:"p00");
  check_int "last result" 2584 (Scheduler.result sched ~name:(Printf.sprintf "p%02d" (n - 1)))

(* --- End-to-end campaigns ----------------------------------------- *)

let small_chaos =
  { (Server.default Server.Chaos) with Server.tenants = 16; requests = 320; seed = 12 }

let total_terminal (c : Server.counters) =
  c.Server.ok + c.Server.retried_ok + c.Server.shed + c.Server.breaker_open
  + c.Server.rejected_unverified + c.Server.failed

let test_serve_chaos_classifies_every_request () =
  let r = Server.simulate ~jobs:1 small_chaos ~strategy:Strategy.Hfi in
  let c = r.Server.counters in
  check_bool "requests were generated" true (c.Server.requests > 0);
  check_int "every request in exactly one terminal outcome" c.Server.requests
    (total_terminal c);
  Server.check_total c;
  check_bool "hazards actually fired" true
    (c.Server.injected_faults > 0 && c.Server.poisoned_tenants > 0);
  check_bool "poison tenants are refused, not run" true
    (c.Server.rejected_unverified > 0);
  check_bool "breaker absorbed the poison tenants" true (c.Server.breaker_trips > 0);
  check_bool "retries recovered some requests" true
    (c.Server.retried_ok > 0 && c.Server.retries >= c.Server.retried_ok);
  check_bool "percentiles ordered" true
    (r.Server.p50_ms <= r.Server.p99_ms && r.Server.p99_ms <= r.Server.p999_ms);
  check_bool "goodput below offered under faults" true
    (r.Server.goodput_rps < r.Server.offered_rps)

(* perfbench pins the rendered reports of its serve campaigns in
   perfbench/expected.json; replay the 1200-request pins here so a
   serving change that drifts them fails the test suite too. The
   rendering is perfbench's [render_report], field for field. *)
let render_report (r : Server.report) =
  let c = r.Server.counters in
  Printf.sprintf
    "requests=%d ok=%d retried_ok=%d shed=%d breaker_open=%d rejected_unverified=%d failed=%d \
     retries=%d timed_out=%d cold_starts=%d warm_hits=%d degraded=%d evictions=%d breaker_trips=%d \
     breaker_rejections=%d injected_faults=%d injected_stalls=%d spurious_rejects=%d \
     poisoned_tenants=%d verify_hits=%d verify_misses=%d verify_persisted=%d \
     sched_budget_faults=%d goodput=%h p50=%h p99=%h"
    c.requests c.ok c.retried_ok c.shed c.breaker_open c.rejected_unverified c.failed c.retries
    c.timed_out c.cold_starts c.warm_hits c.degraded c.evictions c.breaker_trips
    c.breaker_rejections c.injected_faults c.injected_stalls c.spurious_rejects c.poisoned_tenants
    c.verify_hits c.verify_misses c.verify_persisted c.sched_budget_faults r.Server.goodput_rps
    r.Server.p50_ms r.Server.p99_ms

let with_tracing f =
  let t0 = !Hfi_obs.Obs.trace_enabled in
  Hfi_obs.Obs.set_trace true;
  Fun.protect ~finally:(fun () -> Hfi_obs.Obs.set_trace t0) f

let test_serve_jobs_determinism () =
  (* The sharded campaign is byte-identical for any worker count: same
     counters, same percentiles, same everything. *)
  let r1 = Server.simulate ~jobs:1 small_chaos ~strategy:Strategy.Hfi in
  let r4 = Server.simulate ~jobs:4 small_chaos ~strategy:Strategy.Hfi in
  check_bool "jobs=1 equals jobs=4" true (r1 = r4);
  let r1' = Server.simulate ~jobs:1 small_chaos ~strategy:Strategy.Hfi in
  check_bool "replayable from the seed" true (r1 = r1');
  let other =
    Server.simulate ~jobs:1 { small_chaos with Server.seed = 13 } ~strategy:Strategy.Hfi
  in
  check_bool "seed actually steers the campaign" true (r1 <> other);
  (* Two more shapes, each also pinned to the reports a per-shard
     service measurement produced, so a shard that reads another
     shard's service table changes a pin. The burst campaign runs the
     bursty arrival process. The partial one has 20 tenants, so shards
     of 8, 8 and 4: with tenant 19 poisoned, the 4-tenant shard (one
     tenant per kernel) lacks a kernel the full shards still run, so
     the campaign measures two different service tables. *)
  let burst = { (Server.default Server.Burst) with Server.tenants = 16; requests = 320; seed = 12 } in
  let partial = { small_chaos with Server.tenants = 20; requests = 400; seed = 11 } in
  let pinned =
    [
      ( "burst",
        burst,
        [
          ( Strategy.Hfi,
            "requests=225 ok=225 retried_ok=0 shed=0 breaker_open=0 rejected_unverified=0 \
             failed=0 retries=0 timed_out=0 cold_starts=15 warm_hits=210 degraded=0 \
             evictions=0 breaker_trips=0 breaker_rejections=0 injected_faults=0 \
             injected_stalls=0 spurious_rejects=0 poisoned_tenants=0 verify_hits=217 \
             verify_misses=8 verify_persisted=0 sched_budget_faults=0 \
             goodput=0x1.d3e5e2287d1afp+9 p50=0x1.7de5e69ddabc7p+5 p99=0x1.4de015ab428eep+7" );
          ( Strategy.Bounds_checks,
            "requests=226 ok=226 retried_ok=0 shed=0 breaker_open=0 rejected_unverified=0 \
             failed=0 retries=0 timed_out=0 cold_starts=15 warm_hits=211 degraded=0 \
             evictions=0 breaker_trips=0 breaker_rejections=0 injected_faults=0 \
             injected_stalls=0 spurious_rejects=0 poisoned_tenants=0 verify_hits=218 \
             verify_misses=8 verify_persisted=0 sched_budget_faults=0 \
             goodput=0x1.964aa66d7665dp+9 p50=0x1.01a4534225b0dp+6 p99=0x1.9f7506a05359ap+7" );
        ] );
      ( "partial last shard",
        partial,
        [
          ( Strategy.Hfi,
            "requests=388 ok=355 retried_ok=15 shed=0 breaker_open=12 rejected_unverified=6 \
             failed=0 retries=15 timed_out=0 cold_starts=28 warm_hits=357 degraded=0 \
             evictions=9 breaker_trips=1 breaker_rejections=12 injected_faults=15 \
             injected_stalls=5 spurious_rejects=1 poisoned_tenants=1 verify_hits=363 \
             verify_misses=12 verify_persisted=0 sched_budget_faults=0 \
             goodput=0x1.55f84a44c827fp+9 p50=0x1.deafcdd6a8d24p+4 p99=0x1.9d356d4804042p+7" );
          ( Strategy.Bounds_checks,
            "requests=388 ok=355 retried_ok=15 shed=0 breaker_open=12 rejected_unverified=6 \
             failed=0 retries=15 timed_out=0 cold_starts=28 warm_hits=357 degraded=0 \
             evictions=9 breaker_trips=1 breaker_rejections=12 injected_faults=15 \
             injected_stalls=5 spurious_rejects=1 poisoned_tenants=1 verify_hits=363 \
             verify_misses=12 verify_persisted=0 sched_budget_faults=0 \
             goodput=0x1.27a14c8b0de7ep+9 p50=0x1.c58bc7d972111p+4 p99=0x1.9e6f05903c47fp+7" );
        ] );
    ]
  in
  (* traced, so the span lists are compared too; the pins are of
     optimized service kernels, so they hold under HFI_WASM_OPT=0 too *)
  with_tracing @@ fun () ->
  Hfi_opt.Driver.with_enabled true @@ fun () ->
  List.iter
    (fun (name, config, pins) ->
      List.iter
        (fun (strategy, pin) ->
          let what = name ^ "/" ^ Strategy.to_string strategy in
          let r1 = Server.simulate ~jobs:1 config ~strategy in
          check_bool (what ^ ": jobs=1 equals jobs=4") true
            (r1 = Server.simulate ~jobs:4 config ~strategy);
          Alcotest.(check string) (what ^ ": pinned report") pin (render_report r1))
        pins)
    pinned;
  let r = Server.simulate ~jobs:1 partial ~strategy:Strategy.Hfi in
  let poisoned =
    List.filter_map
      (fun (sp : Hfi_obs.Span.t) ->
        if sp.Hfi_obs.Span.stage = Hfi_obs.Span.Admission
           && String.ends_with ~suffix:"-unsafe" sp.Hfi_obs.Span.outcome
        then Some sp.Hfi_obs.Span.tenant
        else None)
      r.Server.spans
  in
  let kernels shard =
    List.init Server.shard_tenants (fun i -> (shard * Server.shard_tenants) + i)
    |> List.filter (fun id -> id < partial.Server.tenants && not (List.mem id poisoned))
    |> List.map (fun id -> id mod List.length Hfi_workloads.Faas_workloads.all)
    |> List.sort_uniq compare
  in
  check_bool "the shards run different co-resident sets" true
    (List.length (List.sort_uniq compare (List.map kernels [ 0; 1; 2 ])) > 1)

let serve_pins () =
  (* under dune the test runs in _build/default/test; by hand, from the root *)
  let path =
    List.find Sys.file_exists [ "../perfbench/expected.json"; "perfbench/expected.json" ]
  in
  match Hfi_util.Json.parse_file path with
  | Error e -> Alcotest.failf "cannot read %s: %s" path e
  | Ok j -> (
    match Hfi_util.Json.member "serve" j with
    | Some (Hfi_util.Json.Obj kvs) ->
      List.filter_map (fun (k, v) -> Option.map (fun s -> (k, s)) (Hfi_util.Json.to_str v)) kvs
    | _ -> Alcotest.failf "%s: no serve pins" path)

let test_serve_replays_perfbench_pins () =
  (* perfbench pins its default, optimizing configuration *)
  Hfi_opt.Driver.with_enabled true @@ fun () ->
  let pins = serve_pins () in
  let requests = 1200 in
  List.iter
    (fun seed ->
      List.iter
        (fun scenario ->
          List.iter
            (fun strategy ->
              let key =
                Printf.sprintf "%d/%d/%s/%s" seed requests (Server.scenario_name scenario)
                  (Strategy.to_string strategy)
              in
              let pin =
                match List.assoc_opt key pins with
                | Some pin -> pin
                | None -> Alcotest.failf "no pin for %s" key
              in
              let config = { (Server.default scenario) with Server.seed; requests } in
              Alcotest.(check string)
                key pin
                (render_report (Server.simulate ~jobs:1 config ~strategy)))
            [ Strategy.Hfi; Strategy.Bounds_checks ])
        [ Server.Steady; Server.Chaos ])
    [ 0; 1; 2; 3 ]

let test_serve_degradation_under_budget_pressure () =
  (* One shard, HFI budget below the tenant count, long keep-alive:
     cold starts past the budget must degrade to bounds checks and the
     requests must still be served. *)
  let cfg =
    {
      (Server.default Server.Steady) with
      Server.tenants = 8;
      requests = 240;
      seed = 3;
      pool = { Instance_pool.keep_alive_s = 30.0; hfi_budget = 4 };
    }
  in
  let r = Server.simulate ~jobs:1 cfg ~strategy:Strategy.Hfi in
  let c = r.Server.counters in
  Server.check_total c;
  check_bool "degradation happened" true (c.Server.degraded > 0);
  check_bool "degraded requests still served" true (c.Server.failed = 0 && c.Server.ok > 0)

let test_serve_failed_outcome_reachable () =
  (* With no retry budget and a vicious crash rate, some requests must
     exhaust their attempts — and still be classified exactly once. *)
  let cfg =
    {
      small_chaos with
      Server.max_attempts = 1;
      rates = { Chaos.default with Chaos.sandbox_crash = 0.5 };
    }
  in
  let r = Server.simulate ~jobs:1 cfg ~strategy:Strategy.Hfi in
  let c = r.Server.counters in
  Server.check_total c;
  check_bool "failures surfaced" true (c.Server.failed > 0);
  check_int "no retries without budget" 0 c.Server.retries

let test_serve_check_total_catches_leaks () =
  check_bool "a leaked request is a simulator bug" true
    (match
       Server.check_total { Server.zero_counters with Server.requests = 1 }
     with
    | exception Fault.Simulator_bug _ -> true
    | () -> false)

let suite =
  [
    Alcotest.test_case "arrivals deterministic and ordered" `Quick
      test_arrival_deterministic_and_ordered;
    Alcotest.test_case "arrival rate calibration" `Quick test_arrival_rate_calibration;
    Alcotest.test_case "backoff bounds and jitter band" `Quick test_backoff_bounds;
    Alcotest.test_case "circuit breaker state machine" `Quick test_breaker_state_machine;
    Alcotest.test_case "pool warm/cold/degradation/eviction" `Quick
      test_pool_warm_cold_and_degradation;
    Alcotest.test_case "admission admits and caches verdicts" `Quick
      test_admission_gate_admits_and_caches;
    Alcotest.test_case "admission memo: reference then optimize is the build" `Quick
      test_admission_memo_identity;
    Alcotest.test_case "admission memo: optimizer switch is in the key" `Quick
      test_admission_memo_keys_optimizer_switch;
    Alcotest.test_case "admission memo: hit means compiled program decided" `Quick
      test_admission_hit_means_compiled_program_decided;
    Alcotest.test_case "admission: prebuilt image equals one-off check" `Quick
      test_admission_image_equivalence;
    Alcotest.test_case "admission: image memo keys on content, not name" `Quick
      test_admission_image_keys_on_content;
    Alcotest.test_case "admission rejects poison before execution" `Quick
      test_admission_gate_rejects_poison_before_execution;
    Alcotest.test_case "scheduler budget fault is typed" `Quick
      test_scheduler_budget_exhaustion_is_typed;
    Alcotest.test_case "scheduler spawns serving-sized fleets" `Quick
      test_scheduler_spawn_many;
    Alcotest.test_case "serve_chaos classifies every request" `Quick
      test_serve_chaos_classifies_every_request;
    Alcotest.test_case "serving jobs=1 equals jobs=4" `Quick test_serve_jobs_determinism;
    Alcotest.test_case "serving replays perfbench's pinned reports" `Quick
      test_serve_replays_perfbench_pins;
    Alcotest.test_case "HFI budget pressure degrades gracefully" `Quick
      test_serve_degradation_under_budget_pressure;
    Alcotest.test_case "failed outcome reachable and classified" `Quick
      test_serve_failed_outcome_reachable;
    Alcotest.test_case "outcome leak detection" `Quick test_serve_check_total_catches_leaks;
  ]
