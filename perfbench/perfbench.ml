(* Host-time benchmark of the HFI model: three workloads (admit, simulate,
   serve) that each stress different layers, output checks on every op,
   and a traced mode that attributes host time to the layer each call
   enters. See NOTES.md for why each workload exists and which layer
   metric should move which end-to-end metric.

   perfbench.exe --workload admit|simulate|serve --seed N --seconds S --trace 0|1

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics; the line before it records the
   seed, the dispatch tier, the optimizer flag and every failed op.
   [--write-expected FILE --pin-seeds A-B] regenerates the pinned values
   the checks compare against. *)

module Strategy = Hfi_sfi.Strategy
module Instance = Hfi_wasm.Instance
module Layout = Hfi_wasm.Layout
module Driver = Hfi_opt.Driver
module Checks = Hfi_verify.Checks
module Proofcheck = Hfi_verify.Proofcheck
module Vreport = Hfi_verify.Report
module Machine = Hfi_pipeline.Machine
module Uop = Hfi_pipeline.Uop
module Cycle_engine = Hfi_pipeline.Cycle_engine
module Server = Hfi_serving.Server
module Admission = Hfi_serving.Admission
module Program = Hfi_isa.Program
module Instr = Hfi_isa.Instr
module Json = Hfi_util.Json
module Prng = Hfi_util.Prng
module Stats = Hfi_util.Stats
module Sightglass = Hfi_workloads.Sightglass
module Spec = Hfi_workloads.Spec
module Faas = Hfi_workloads.Faas_workloads
module Fuzz = Hfi_experiments.Fuzz
module Wasm_compile = Hfi_wasm.Wasm_compile

let span = Span_log.record
let clock = Unix.gettimeofday
let sname = Strategy.to_string
let code_base = Layout.code_base

(* ------------------------------------------------------------------ *)
(* Environment guard                                                   *)
(* ------------------------------------------------------------------ *)

(* Knobs that change what is measured: caches that turn cold work warm,
   the optimizer switch, the dispatch tier, observability collection,
   the register-pressure model and the worker count. *)
let measured_knobs =
  [
    "HFI_RESULT_CACHE";
    "HFI_VERIFY_CACHE";
    "HFI_WASM_OPT";
    "HFI_DECODE_CACHE";
    "HFI_BLOCK_COMPILE";
    "HFI_OBS";
    "HFI_REGPRESSURE_MODEL";
    "HFI_JOBS";
  ]

let refuse_measured_knobs () =
  match List.filter (fun k -> Sys.getenv_opt k <> None) measured_knobs with
  | [] -> ()
  | set ->
    Printf.eprintf "perfbench: refusing to run with %s set; unset it to measure the default build\n"
      (String.concat ", " set);
    exit 2

(* ------------------------------------------------------------------ *)
(* Op accounting                                                       *)
(* ------------------------------------------------------------------ *)

(* Every op is attempted once; a failed op is counted whether or not it
   is a known baseline failure. Only unexpected failures make the run
   incorrect. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable failed_keys : string list;
  mutable known : string list;
  mutable unexpected : string list;
}

let tally = { attempted = 0; failed = 0; failed_keys = []; known = []; unexpected = [] }
let attempt n = tally.attempted <- tally.attempted + n

let fail ?(known = false) ~ops ~key why =
  let msg = key ^ ": " ^ why in
  tally.failed <- tally.failed + ops;
  tally.failed_keys <- key :: tally.failed_keys;
  if known then tally.known <- msg :: tally.known else tally.unexpected <- msg :: tally.unexpected

(* A mismatch that is not an op failure but breaks a benchmark invariant
   (traced and untraced runs disagreeing, a missing pin). *)
let problem msg = tally.unexpected <- msg :: tally.unexpected

(* ------------------------------------------------------------------ *)
(* Pinned expectations                                                 *)
(* ------------------------------------------------------------------ *)

type expected = {
  known_failures : string list;  (** "module/strategy" admit cells *)
  sim_pins : (string, string) Hashtbl.t;  (** "program/strategy/engine" -> outcome *)
  serve_pins : (string, string) Hashtbl.t;  (** "seed/requests/scenario/strategy" -> report *)
}

let load_expected path =
  let obj name j =
    let tbl = Hashtbl.create 64 in
    (match Json.member name j with
    | Some (Json.Obj kvs) ->
      List.iter (fun (k, v) -> Option.iter (Hashtbl.replace tbl k) (Json.to_str v)) kvs
    | _ -> ());
    tbl
  in
  match Json.parse_file path with
  | Error e ->
    Printf.eprintf "perfbench: cannot read %s: %s\n" path e;
    exit 2
  | Ok j ->
    {
      known_failures =
        (match Option.bind (Json.member "admit_known_failures" j) Json.to_list with
        | Some l -> List.filter_map Json.to_str l
        | None -> []);
      sim_pins = obj "simulate" j;
      serve_pins = obj "serve" j;
    }

let no_expected =
  { known_failures = []; sim_pins = Hashtbl.create 1; serve_pins = Hashtbl.create 1 }

(* ------------------------------------------------------------------ *)
(* admit: cold compile -> optimize -> verify -> proofcheck             *)
(* ------------------------------------------------------------------ *)

type expect = Honest | Control

type cell = {
  module_ : string;
  strategy : Strategy.t;
  w : Instance.workload;
  expect : expect;
  codegen_fp : string;  (** fingerprint of the unoptimized program, from set-up *)
}

let cell_key c = c.module_ ^ "/" ^ sname c.strategy
let serve_strategies = [ Strategy.Hfi; Strategy.Bounds_checks ]
let spec_programs = [ "400.perlbench"; "429.mcf"; "462.libquantum" ]
let fuzz_modules = 250

let admit_modules ~seed ~full =
  let faas = List.map (fun (f : Faas.t) -> (f.Faas.name, f.Faas.workload, Honest)) Faas.all in
  let controls =
    [
      (Admission.poison_workload.Instance.name, Admission.poison_workload, Control, Strategy.all);
      (* the escape is an in-sandbox region write: it exists only inside an
         HFI sandbox, which is where the fuzz oracle plants it too *)
      (Fuzz.escape_workload.Instance.name, Fuzz.escape_workload, Control, [ Strategy.Hfi ]);
    ]
  in
  let all_strategies l = List.map (fun (n, w, e) -> (n, w, e, Strategy.all)) l in
  (* the companion set: what the serving admission gate verifies *)
  if not full then List.map (fun (n, w, e) -> (n, w, e, serve_strategies)) faas
  else
    let sightglass = List.map (fun (n, w) -> (n, w, Honest)) Sightglass.all in
    let spec = List.map (fun n -> (n, Spec.workload (Spec.find n), Honest)) spec_programs in
    let rng = Prng.create ~seed in
    let fuzz =
      List.init fuzz_modules (fun i ->
          (Printf.sprintf "fuzz-%d-%d" seed i, Wasm_compile.workload (Fuzz.generate rng), Honest))
    in
    all_strategies (sightglass @ faas @ spec @ fuzz) @ controls

let admit_cells ~seed ~full =
  List.concat_map
    (fun (module_, w, expect, strategies) ->
      List.map
        (fun strategy ->
          let p = Instance.build_program ~strategy ~optimize:false w in
          { module_; strategy; w; expect; codegen_fp = Program.fingerprint p })
        strategies)
    (admit_modules ~seed ~full)

(* Per-pass counters the traced run reports for the opt and verify layers. *)
type admit_counts = {
  mutable instrs_in : int;
  mutable instrs_out : int;
  mutable changed : int;
  mutable iterations : int;
  mutable blocks : int;
  mutable safe : int;
  mutable unknown : int;
  mutable unsafe : int;
}

let admit_counts () =
  {
    instrs_in = 0;
    instrs_out = 0;
    changed = 0;
    iterations = 0;
    blocks = 0;
    safe = 0;
    unknown = 0;
    unsafe = 0;
  }

(* A control passes when it is Unsafe and a violation names a planted
   instruction of the program (a region write or a store) by index and
   rendering. *)
let names_planted p (v : Vreport.violation) =
  v.Vreport.index >= 0
  && v.Vreport.index < Program.length p
  &&
  let i = Program.get p v.Vreport.index in
  v.Vreport.instr = Instr.to_string i
  && match i with Instr.Hfi_set_region _ | Instr.Store _ | Instr.Hstore _ -> true | _ -> false

(* One cell; returns its interval (probes excluded) and the line the
   traced/untraced comparison uses. *)
let admit_cell ~exp ~counts ~probe_s c =
  let start = Host_speed.mark () in
  let s = sname c.strategy in
  let p0 =
    span "wasm.codegen" (fun () -> Instance.build_program ~strategy:c.strategy ~optimize:false c.w)
  in
  let conv =
    Instance.opt_conv ~strategy:c.strategy
      ~heap_size:(Instance.round_to_wasm_page c.w.Instance.heap_bytes)
  in
  let passes = span ("opt.optimize." ^ s) (fun () -> Driver.passes conv p0) in
  let p = match List.rev passes with [] -> p0 | last :: _ -> last.Driver.prog in
  let report, proof =
    span ("verify.verify." ^ s) (fun () ->
        Checks.verify_with_proof ~name:c.module_ { Checks.strategy = c.strategy; code_base } p)
  in
  let proofcheck =
    match (report.Vreport.verdict, proof) with
    | Vreport.Safe, Some pf ->
      Some
        (span "verify.proofcheck" (fun () ->
             Proofcheck.check ~strategy:c.strategy ~code_base p pf))
    | _ -> None
  in
  let iv = (start, Host_speed.mark ()) in
  if !Span_log.enabled then begin
    let tp = clock () in
    ignore (span ~probe:true "pipeline.decode" (fun () -> Uop.decode_fresh p ~code_base));
    probe_s := !probe_s +. (clock () -. tp)
  end;
  counts.instrs_in <- counts.instrs_in + Program.length p0;
  counts.instrs_out <- counts.instrs_out + Program.length p;
  counts.changed <- counts.changed + Driver.total_changed passes;
  counts.iterations <- counts.iterations + report.Vreport.iterations;
  counts.blocks <- counts.blocks + report.Vreport.blocks;
  (match report.Vreport.verdict with
  | Vreport.Safe -> counts.safe <- counts.safe + 1
  | Vreport.Unknown _ -> counts.unknown <- counts.unknown + 1
  | Vreport.Unsafe _ -> counts.unsafe <- counts.unsafe + 1);
  let verdict = Vreport.verdict_name report.Vreport.verdict in
  let outcome =
    if Program.fingerprint p0 <> c.codegen_fp then Error "codegen differs from set-up"
    else
      match (c.expect, report.Vreport.verdict) with
      | Honest, Vreport.Safe -> (
        match proofcheck with
        | Some Proofcheck.Accepted -> Ok ()
        | Some (Proofcheck.Rejected why) -> Error ("proofcheck rejected: " ^ String.concat "; " why)
        | None -> Error "safe without a proof artifact")
      | Honest, _ -> Error verdict
      | Control, Vreport.Unsafe vs when List.exists (names_planted p) vs -> Ok ()
      | Control, Vreport.Unsafe _ -> Error "unsafe, but no violation names a planted instruction"
      | Control, _ -> Error (verdict ^ " on a negative control")
  in
  attempt 1;
  (match outcome with
  | Ok () -> ()
  | Error why ->
    let key = cell_key c in
    fail ~known:(List.mem key exp.known_failures) ~ops:1 ~key why);
  (iv, Printf.sprintf "%s %s %s" (cell_key c) verdict (Program.fingerprint p))

let admit_pass ~exp ~counts ~probe_s cells =
  List.concat
    (List.mapi
       (fun i c ->
         Span_log.set_op i;
         match admit_cell ~exp ~counts ~probe_s c with
         | r -> [ r ]
         | exception e ->
           attempt 1;
           fail ~ops:1 ~key:(cell_key c) ("exception " ^ Printexc.to_string e);
           [])
       cells)

(* ------------------------------------------------------------------ *)
(* simulate: fresh reference instantiate, then fast and cycle engines  *)
(* ------------------------------------------------------------------ *)

type sim_item = {
  program : string;
  sstrategy : Strategy.t;
  sw : Instance.workload;
  checksum : int option;  (** Sightglass closed-form result *)
  program_fp : string;  (** reference-lowering fingerprint, from set-up *)
}

let sim_strategies = [ Strategy.Guard_pages; Strategy.Bounds_checks; Strategy.Hfi ]

let sim_items ~seed ~full =
  let programs =
    (if full then
       List.map (fun (p : Spec.profile) -> (p.Spec.name, Spec.workload p, None)) Spec.profiles
     else [])
    @ List.map (fun (n, w) -> (n, w, Sightglass.expected_result n)) Sightglass.all
  in
  let items =
    Array.of_list
      (List.concat_map
         (fun (program, sw, checksum) ->
           List.map
             (fun sstrategy ->
               let p = Instance.build_program ~strategy:sstrategy ~optimize:false sw in
               { program; sstrategy; sw; checksum; program_fp = Program.fingerprint p })
             sim_strategies)
         programs)
  in
  (* inputs are fixed by name; the seed only orders them *)
  Prng.shuffle (Prng.create ~seed) items;
  Array.to_list items

type engine = Fast | Cycle

let engine_name = function Fast -> "fast" | Cycle -> "cycle"
let sim_key it e = Printf.sprintf "%s/%s/%s" it.program (sname it.sstrategy) (engine_name e)

type sim_sample = {
  engine : engine;
  run_iv : Host_speed.interval;  (** instantiate + engine run *)
  engine_iv : Host_speed.interval;
  instrs : int;
  key : string;
  cycles : float;
  rendered : string;  (** modeled cycles (exact) and RAX, as pinned *)
  dcache_misses : int;
  cond_mispredicts : int;
  transient : int;
}

let render_outcome ~cycles ~rax = Printf.sprintf "cycles=%h rax=%d" cycles rax

let sim_run ~exp it e =
  let start = Host_speed.mark () in
  let inst =
    span "wasm.instantiate" (fun () ->
        Instance.instantiate ~strategy:it.sstrategy ~optimize:false it.sw)
  in
  let instantiated = Host_speed.mark () in
  let cycles, status, (dm, cm, tr) =
    match e with
    | Fast ->
      let cycles, status = span "pipeline.run_fast" (fun () -> Instance.run_fast inst) in
      (cycles, status, (0, 0, 0))
    | Cycle ->
      let r = span "pipeline.run_cycle" (fun () -> Instance.run_cycle inst) in
      ( r.Cycle_engine.cycles,
        r.Cycle_engine.status,
        ( r.Cycle_engine.dcache_misses,
          r.Cycle_engine.cond_mispredicts,
          r.Cycle_engine.transient_instrs )
      )
  in
  let stop = Host_speed.mark () in
  let rax = Instance.result_rax inst in
  let rendered = render_outcome ~cycles ~rax in
  let key = sim_key it e in
  let errors =
    List.filter_map Fun.id
      [
        (if Program.fingerprint (Instance.program inst) <> it.program_fp then
           Some "program differs from set-up"
         else None);
        (if status <> Machine.Halted then Some "did not halt" else None);
        (match it.checksum with
        | Some v when v <> rax -> Some (Printf.sprintf "rax %d, expected checksum %d" rax v)
        | _ -> None);
        (match Hashtbl.find_opt exp.sim_pins key with
        | Some pin when pin <> rendered -> Some (Printf.sprintf "%s, pinned %s" rendered pin)
        | Some _ -> None
        | None -> if Hashtbl.length exp.sim_pins > 0 then Some "no pinned outcome" else None);
      ]
  in
  attempt 1;
  if errors <> [] then fail ~ops:1 ~key (String.concat "; " errors);
  {
    engine = e;
    run_iv = (start, stop);
    engine_iv = (instantiated, stop);
    instrs = Machine.instr_count (Instance.machine inst);
    key;
    cycles;
    rendered;
    dcache_misses = dm;
    cond_mispredicts = cm;
    transient = tr;
  }

(* Traced-pass probes: standalone decode and an execute-only run (no-op
   observer) of the same program on a fresh instance. *)
let sim_probes it =
  let inst = Instance.instantiate ~strategy:it.sstrategy ~optimize:false it.sw in
  ignore
    (span ~probe:true "pipeline.decode" (fun () ->
         Uop.decode_fresh (Instance.program inst) ~code_base));
  let status =
    span ~probe:true "pipeline.execute" (fun () ->
        Machine.run (Instance.machine inst) (fun _ -> ()))
  in
  if status <> Machine.Halted then
    problem (Printf.sprintf "simulate %s: execute-only run did not halt" it.program)

let sim_pass ~exp ~probe_s items =
  List.concat
    (List.mapi
       (fun i it ->
         Span_log.set_op i;
         if !Span_log.enabled then begin
           let tp = clock () in
           sim_probes it;
           probe_s := !probe_s +. (clock () -. tp)
         end;
         List.concat_map
           (fun e ->
             match sim_run ~exp it e with
             | s -> [ s ]
             | exception ex ->
               attempt 1;
               fail ~ops:1 ~key:(sim_key it e) ("exception " ^ Printexc.to_string ex);
               [])
           [ Fast; Cycle ])
       items)

(* ------------------------------------------------------------------ *)
(* serve: multi-tenant serving campaigns                               *)
(* ------------------------------------------------------------------ *)

type campaign = {
  scenario : Server.scenario;
  cstrategy : Strategy.t;
  requests : int;
  cseed : int;
  gate_ok : bool;  (** set-up's check of the admission gate under [cstrategy] *)
}

let serve_requests ~full = if full then 6000 else 1200

(* On fresh checkers, the gate must admit every catalog kernel and
   reject the poison module. *)
let gate_decides_right strategy =
  let admitted w = Admission.check (Admission.create ()) ~strategy w = Admission.Admitted in
  List.for_all (fun (f : Faas.t) -> admitted f.Faas.workload) Faas.all
  && not (admitted Admission.poison_workload)

let campaigns ~seed ~full =
  let gate = List.map (fun s -> (s, gate_decides_right s)) serve_strategies in
  List.concat_map
    (fun scenario ->
      List.map
        (fun cstrategy ->
          {
            scenario;
            cstrategy;
            requests = serve_requests ~full;
            cseed = seed;
            gate_ok = List.assoc cstrategy gate;
          })
        serve_strategies)
    [ Server.Steady; Server.Chaos ]

let campaign_key c =
  Printf.sprintf "%d/%d/%s/%s" c.cseed c.requests (Server.scenario_name c.scenario)
    (sname c.cstrategy)

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

let config_of c = { (Server.default c.scenario) with Server.seed = c.cseed; requests = c.requests }

type serve_sample = { camp : campaign; iv : Host_speed.interval; report : Server.report option }

let serve_campaign ~exp c =
  let start = Host_speed.mark () in
  let name =
    Printf.sprintf "serving.simulate.%s.%s" (Server.scenario_name c.scenario) (sname c.cstrategy)
  in
  match span name (fun () -> Server.simulate ~jobs:1 (config_of c) ~strategy:c.cstrategy) with
  | exception e ->
    attempt c.requests;
    fail ~ops:c.requests ~key:(campaign_key c) ("exception " ^ Printexc.to_string e);
    { camp = c; iv = (start, Host_speed.mark ()); report = None }
  | r ->
    let iv = (start, Host_speed.mark ()) in
    let counters = r.Server.counters in
    let rendered = render_report r in
    let errors =
      List.filter_map Fun.id
        [
          (match Server.check_total counters with
          | () -> None
          | exception e -> Some ("check_total: " ^ Printexc.to_string e));
          (if not c.gate_ok then Some "admission gate misjudges the catalog" else None);
          (if counters.Server.poisoned_tenants > 0 && counters.Server.rejected_unverified = 0 then
             Some "poisoned tenants but no admission rejection"
           else None);
          (match Hashtbl.find_opt exp.serve_pins (campaign_key c) with
          | Some pin when pin <> rendered ->
            Some (Printf.sprintf "report %s, pinned %s" rendered pin)
          | _ -> None);
        ]
    in
    attempt counters.Server.requests;
    if errors <> [] then
      fail ~ops:counters.Server.requests ~key:(campaign_key c) (String.concat "; " errors);
    { camp = c; iv; report = Some r }

let serve_pass ~exp camps =
  List.mapi
    (fun i c ->
      Span_log.set_op i;
      serve_campaign ~exp c)
    camps

(* Admission-gate probe: one fresh checker per miss, then hits on the
   warmed checker, per FaaS kernel. Returns (hit seconds, miss seconds)
   averaged over the kernels, each kernel's cost being a median. *)
let admission_probe strategy =
  let s = sname strategy in
  let per_kernel =
    List.map
      (fun (f : Faas.t) ->
        let time name a =
          let t0 = clock () in
          let d = span ~probe:true name (fun () -> Admission.check a ~strategy f.Faas.workload) in
          (match d with
          | Admission.Admitted -> ()
          | Admission.Rejected { verdict; _ } ->
            problem (Printf.sprintf "admission probe %s/%s: %s" f.Faas.name s verdict));
          clock () -. t0
        in
        let misses =
          List.init 5 (fun _ -> time ("serving.admission_miss." ^ s) (Admission.create ()))
        in
        let warm = Admission.create () in
        ignore (Admission.check warm ~strategy f.Faas.workload);
        let hits = List.init 20 (fun _ -> time ("serving.admission_hit." ^ s) warm) in
        (Stats.median hits, Stats.median misses))
      Faas.all
  in
  (Stats.mean (List.map fst per_kernel), Stats.mean (List.map snd per_kernel))

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type workload = Admit | Simulate | Serve

let workload_of_string = function
  | "admit" -> Some Admit
  | "simulate" -> Some Simulate
  | "serve" -> Some Serve
  | _ -> None

(* The inputs of one workload: its own full-size set, plus small fixed
   companion sets of the other two kinds so every end-to-end metric has
   a measured value on every workload. Companions run after the timed
   phase and are not part of wall_s. *)
type inputs = { cells : cell list; items : sim_item list; camps : campaign list }

let setup kind ~seed =
  {
    cells = admit_cells ~seed ~full:(kind = Admit);
    items = sim_items ~seed ~full:(kind = Simulate);
    camps = campaigns ~seed ~full:(kind = Serve);
  }

let setup_repeats = 5

let pct p xs = if xs = [] then nan else Stats.percentile p xs

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let secs = Host_speed.corrected

let admit_metrics samples =
  let ms = List.map (fun (iv, _) -> secs iv *. 1e3) samples in
  [ m "module_ms_p50" "ms" (pct 50.0 ms); m "module_ms_p90" "ms" (pct 90.0 ms) ]

let sim_metrics samples =
  let rate e =
    let mine = List.filter (fun s -> s.engine = e) samples in
    let instrs = List.fold_left (fun a s -> a + s.instrs) 0 mine in
    let t = List.fold_left (fun a s -> a +. secs s.engine_iv) 0.0 mine in
    float_of_int instrs /. 1e6 /. t
  in
  let ms = List.map (fun s -> secs s.run_iv *. 1e3) samples in
  [
    m "fast_minstr_per_s" "Minstr/s" (rate Fast);
    m "cycle_minstr_per_s" "Minstr/s" (rate Cycle);
    m "run_ms_p50" "ms" (pct 50.0 ms);
    m "run_ms_p90" "ms" (pct 90.0 ms);
  ]

(* Requests per host second per strategy over both scenarios, median
   over passes. *)
let serve_metrics passes =
  List.map
    (fun strategy ->
      let rate samples =
        let mine = List.filter (fun s -> s.camp.cstrategy = strategy) samples in
        let reqs = List.fold_left (fun a s -> a + s.camp.requests) 0 mine in
        float_of_int reqs /. List.fold_left (fun a s -> a +. secs s.iv) 0.0 mine
      in
      m ("req_per_host_s." ^ sname strategy) "req/s" (Stats.median (List.map rate passes)))
    serve_strategies

(* Passes of the timed phase: keep starting passes while the next one is
   expected to end within [seconds]; always at least one. *)
let timed_passes ~seconds pass =
  let t_start = clock () in
  let rec go acc =
    let start = Host_speed.mark () in
    let r = pass () in
    let stop = Host_speed.mark () in
    let acc = ((start, stop), r) :: acc in
    if clock () -. t_start +. (stop.Host_speed.t -. start.Host_speed.t) > seconds then List.rev acc
    else go acc
  in
  go []


(* Set-up 5 times, the timed phase, then the companion sets; metrics are
   computed once the host-speed sampler has stopped. *)
let run_untraced kind ~exp ~seed ~seconds =
  Host_speed.start ();
  let setups =
    List.init setup_repeats (fun _ ->
        let start = Host_speed.mark () in
        let inputs = setup kind ~seed in
        ((start, Host_speed.mark ()), inputs))
  in
  let inputs = snd (List.hd setups) in
  let probe_s = ref 0.0 in
  let admit () = admit_pass ~exp ~counts:(admit_counts ()) ~probe_s inputs.cells in
  let simulate () = sim_pass ~exp ~probe_s inputs.items in
  let serve () = serve_pass ~exp inputs.camps in
  (* the companion sets are small: repeat them for stable percentiles *)
  let admit_companion () = List.concat (List.init 50 (fun _ -> admit ())) in
  let sim_companion () = List.concat (List.init 3 (fun _ -> simulate ())) in
  let serve_companion () = List.init 5 (fun _ -> serve ()) in
  let timed main =
    let passes = timed_passes ~seconds main in
    let heap_mb = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6 in
    (List.map fst passes, heap_mb, List.map snd passes)
  in
  let passes, heap_mb, cells, runs, serves =
    match kind with
    | Admit ->
      let passes, heap_mb, out = timed admit in
      (passes, heap_mb, List.concat out, sim_companion (), serve_companion ())
    | Simulate ->
      let passes, heap_mb, out = timed simulate in
      (passes, heap_mb, admit_companion (), List.concat out, serve_companion ())
    | Serve ->
      let passes, heap_mb, out = timed serve in
      (passes, heap_mb, admit_companion (), sim_companion (), out)
  in
  Host_speed.stop ();
  let ok_share =
    float_of_int (tally.attempted - tally.failed) /. float_of_int (max 1 tally.attempted)
  in
  ( [
      m "setup_s" "s" (Stats.median (List.map (fun (iv, _) -> secs iv) setups));
      m "wall_s" "s" (Stats.median (List.map secs passes));
      m "peak_heap_mb" "MB" heap_mb;
      m "ok_share" "share" ok_share;
    ]
    @ admit_metrics cells @ sim_metrics runs @ serve_metrics serves,
    List.length passes,
    Stats.median (List.map Host_speed.raw passes) )

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

let ms s = s *. 1e3
let mwords w = w /. 1e6

let per_layer_metrics ~traced_s ~untraced_s ~probe_s ~admit_c ~sim ~serve ~admission =
  let tbl = Span_log.totals () in
  let self name = Span_log.self_s tbl name in
  let sum_prefix prefix f =
    Hashtbl.fold
      (fun name t acc -> if String.starts_with ~prefix name then acc +. f t else acc)
      tbl 0.0
  in
  let per_strategy prefix unit_ f = List.map (fun s -> m (prefix ^ sname s) unit_ (f s)) Strategy.all in
  let count name v = m name "count" (float_of_int v) in
  let sim_sum f = List.fold_left (fun a s -> a + f s) 0 sim in
  let engine_instrs e = sim_sum (fun s -> if s.engine = e then s.instrs else 0) in
  let execute_s = self "pipeline.execute" in
  let minor_per_instr e name =
    let n = engine_instrs e in
    if n = 0 then 0.0 else Span_log.words tbl name /. float_of_int n
  in
  let modeled_cycles = List.fold_left (fun a s -> a +. s.cycles) 0.0 sim in
  let serve_counts f =
    List.fold_left (fun a s -> match s.report with Some r -> a + f r.Server.counters | None -> a) 0 serve
  in
  let serving_strategies f = List.map f serve_strategies in
  let campaign_s strategy =
    List.fold_left
      (fun a s -> if s.camp.cstrategy = strategy then a +. Host_speed.raw s.iv else a)
      0.0 serve
  in
  let hits_of strategy =
    List.fold_left
      (fun (h, mi) s ->
        match s.report with
        | Some r when s.camp.cstrategy = strategy ->
          (h + r.Server.counters.Server.verify_hits, mi + r.Server.counters.Server.verify_misses)
        | _ -> (h, mi))
      (0, 0) serve
  in
  let coverage = Span_log.layer_self_s () /. (traced_s -. probe_s) in
  [
    m "wasm.codegen_ms" "ms" (ms (self "wasm.codegen"));
    m "wasm.instantiate_ms" "ms" (ms (self "wasm.instantiate"));
  ]
  @ per_strategy "opt.optimize_ms." "ms" (fun s -> ms (self ("opt.optimize." ^ sname s)))
  @ [
      count "opt.instrs_in" admit_c.instrs_in;
      count "opt.instrs_out" admit_c.instrs_out;
      count "opt.changed" admit_c.changed;
      m "opt.minor_mwords" "Mwords" (mwords (sum_prefix "opt." (fun t -> t.Span_log.words)));
      m "pipeline.decode_ms" "ms" (ms (self "pipeline.decode"));
      m "pipeline.execute_ms" "ms" (ms execute_s);
      m "pipeline.fast_accounting_ms" "ms" (ms (self "pipeline.run_fast" -. execute_s));
      m "pipeline.cycle_accounting_ms" "ms" (ms (self "pipeline.run_cycle" -. execute_s));
      count "pipeline.sim_instrs" (engine_instrs Fast + engine_instrs Cycle);
      m "pipeline.modeled_cycles" "cycles" modeled_cycles;
      count "pipeline.dcache_misses" (sim_sum (fun s -> s.dcache_misses));
      count "pipeline.cond_mispredicts" (sim_sum (fun s -> s.cond_mispredicts));
      count "pipeline.transient_instrs" (sim_sum (fun s -> s.transient));
      m "pipeline.minor_words_per_instr.fast" "words/instr" (minor_per_instr Fast "pipeline.run_fast");
      m "pipeline.minor_words_per_instr.cycle" "words/instr" (minor_per_instr Cycle "pipeline.run_cycle");
    ]
  @ per_strategy "verify.verify_ms." "ms" (fun s -> ms (self ("verify.verify." ^ sname s)))
  @ [
      m "verify.proofcheck_ms" "ms" (ms (self "verify.proofcheck"));
      m "verify.minor_mwords" "Mwords" (mwords (sum_prefix "verify." (fun t -> t.Span_log.words)));
      count "verify.iterations" admit_c.iterations;
      count "verify.blocks" admit_c.blocks;
      count "verify.safe" admit_c.safe;
      count "verify.unknown" admit_c.unknown;
      count "verify.unsafe" admit_c.unsafe;
    ]
  @ List.concat_map
      (fun sc ->
        serving_strategies (fun s ->
            m
              (Printf.sprintf "serving.simulate_ms.%s.%s" (Server.scenario_name sc) (sname s))
              "ms"
              (ms (self (Printf.sprintf "serving.simulate.%s.%s" (Server.scenario_name sc) (sname s))))))
      [ Server.Steady; Server.Chaos ]
  @ serving_strategies (fun s ->
        m ("serving.admission_hit_us." ^ sname s) "us"
          (match List.assoc_opt s admission with Some (h, _) -> h *. 1e6 | None -> 0.0))
  @ serving_strategies (fun s ->
        m ("serving.admission_miss_ms." ^ sname s) "ms"
          (match List.assoc_opt s admission with Some (_, mi) -> mi *. 1e3 | None -> 0.0))
  @ serving_strategies (fun s ->
        m ("serving.admission_share." ^ sname s) "share"
          (match List.assoc_opt s admission with
          | Some (hit_s, miss_s) ->
            let hits, misses = hits_of s in
            ((float_of_int hits *. hit_s) +. (float_of_int misses *. miss_s)) /. campaign_s s
          | None -> 0.0))
  @ [
      count "serving.verify_hits" (serve_counts (fun c -> c.Server.verify_hits));
      count "serving.verify_misses" (serve_counts (fun c -> c.Server.verify_misses));
      count "serving.cold_starts" (serve_counts (fun c -> c.Server.cold_starts));
      count "serving.retries" (serve_counts (fun c -> c.Server.retries));
      m "trace.overhead_s" "s" (traced_s -. probe_s -. untraced_s);
      m "trace.self_coverage" "share" coverage;
    ]

(* One untraced pass, then one traced pass of the same inputs. The traced
   pass must reproduce the untraced pass's outputs exactly; its probes
   are timed apart and excluded from the tracing overhead. *)
let run_traced kind ~exp ~seed ~spans_path =
  let inputs = setup kind ~seed in
  let admit_c = admit_counts () in
  let pass ~traced =
    Span_log.enabled := traced;
    let probe_s = ref 0.0 in
    let t0 = clock () in
    let out =
      match kind with
      | Admit ->
        let counts = if traced then admit_c else admit_counts () in
        `Admit (admit_pass ~exp ~counts ~probe_s inputs.cells)
      | Simulate -> `Sim (sim_pass ~exp ~probe_s inputs.items)
      | Serve -> `Serve (serve_pass ~exp inputs.camps)
    in
    let dt = clock () -. t0 in
    Span_log.enabled := false;
    (dt, !probe_s, out)
  in
  let untraced_s, _, before = pass ~traced:false in
  Span_log.reset ();
  let origin = clock () in
  let traced_s, probe_s, after = pass ~traced:true in
  let admission =
    if kind = Serve then begin
      Span_log.enabled := true;
      let r = List.map (fun s -> (s, admission_probe s)) serve_strategies in
      Span_log.enabled := false;
      r
    end
    else []
  in
  let lines = function
    | `Admit l -> List.map snd l
    | `Sim l -> List.map (fun s -> s.key ^ " " ^ s.rendered) l
    | `Serve l ->
      List.map
        (fun s -> campaign_key s.camp ^ " " ^ Option.fold ~none:"failed" ~some:render_report s.report)
        l
  in
  if lines before <> lines after then problem "traced pass outputs differ from the untraced pass";
  let sim = match after with `Sim l -> l | _ -> [] in
  let serve = match after with `Serve l -> l | _ -> [] in
  let metrics =
    per_layer_metrics ~traced_s ~untraced_s ~probe_s ~admit_c ~sim ~serve ~admission
  in
  (try Span_log.write_jsonl spans_path ~origin
   with Sys_error e -> problem ("cannot write spans: " ^ e));
  (metrics, untraced_s)

(* ------------------------------------------------------------------ *)
(* Pinned-value generation                                             *)
(* ------------------------------------------------------------------ *)

let write_expected path ~seeds =
  let esc = Vreport.escape in
  let counts = admit_counts () in
  let probe_s = ref 0.0 in
  ignore (admit_pass ~exp:no_expected ~counts ~probe_s (admit_cells ~seed:0 ~full:true));
  (* fuzz cells are drawn per seed and never pinned *)
  let known =
    List.sort_uniq compare
      (List.filter (fun k -> not (String.starts_with ~prefix:"fuzz-" k)) tally.failed_keys)
  in
  let sim =
    List.concat_map
      (fun it ->
        List.map
          (fun e ->
            let s = sim_run ~exp:no_expected it e in
            (s.key, s.rendered))
          [ Fast; Cycle ])
      (sim_items ~seed:0 ~full:true)
  in
  let serve =
    List.concat_map
      (fun seed ->
        List.concat_map
          (fun full ->
            List.filter_map
              (fun c ->
                let s = serve_campaign ~exp:no_expected c in
                Option.map (fun r -> (campaign_key c, render_report r)) s.report)
              (campaigns ~seed ~full))
          [ true; false ])
      seeds
  in
  let oc = open_out path in
  let obj l =
    String.concat ",\n" (List.map (fun (k, v) -> Printf.sprintf "    \"%s\": \"%s\"" (esc k) (esc v)) l)
  in
  Printf.fprintf oc "{\n  \"admit_known_failures\": [%s],\n  \"simulate\": {\n%s\n  },\n  \"serve\": {\n%s\n  }\n}\n"
    (String.concat ", " (List.map (fun k -> "\"" ^ esc k ^ "\"") known))
    (obj (List.sort compare sim)) (obj serve);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun x -> Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" x.name x.value x.unit_)
       ms)

let json_strings l = "[" ^ String.concat ", " (List.map (fun s -> "\"" ^ Vreport.escape s ^ "\"") l) ^ "]"

let usage () =
  prerr_endline
    "usage: perfbench --workload admit|simulate|serve --seed N --seconds S --trace 0|1\n\
    \       perfbench --write-expected FILE --pin-seeds A-B";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
      parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = List.assoc_opt k opts in
  let int_opt k = Option.bind (get k) int_of_string_opt in
  refuse_measured_knobs ();
  match get "write-expected" with
  | Some path ->
    let seeds =
      match Option.map (String.split_on_char '-') (get "pin-seeds") with
      | Some [ a; b ] -> List.init (int_of_string b - int_of_string a + 1) (fun i -> int_of_string a + i)
      | _ -> usage ()
    in
    write_expected path ~seeds
  | None -> (
    match
      (Option.bind (get "workload") workload_of_string, int_opt "seed", int_opt "seconds", get "trace")
    with
    | Some kind, Some seed, Some seconds, Some ("0" | "1" as trace) when seconds > 0 ->
      let exp = load_expected "perfbench/expected.json" in
      let wname = Option.get (get "workload") in
      let t_run = clock () in
      let metrics, passes, raw_wall_s =
        if trace = "0" then run_untraced kind ~exp ~seed ~seconds:(float_of_int seconds)
        else begin
          let dir = "_perfbench_out" in
          (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
          let spans_path = Filename.concat dir (Printf.sprintf "%s-seed%d.spans.jsonl" wname seed) in
          let metrics, untraced_s = run_traced kind ~exp ~seed ~spans_path in
          (metrics, 2, untraced_s)
        end
      in
      let failed_share =
        float_of_int tally.failed /. float_of_int (max 1 tally.attempted)
      in
      Printf.printf
        "{\"workload\": \"%s\", \"seed\": %d, \"seconds\": %d, \"trace\": %s, \"passes\": %d, \
         \"run_s\": %.3f, \"raw_wall_s\": %.3f, \"host_speed_factor\": %.4f, \"dispatch_tier\": \"%s\", \
         \"optimizer_enabled\": %b, \"attempted\": %d, \"failed\": %d, \"failed_share\": %.6g, \
         \"known_failures\": %s, \"unexpected\": %s}\n"
        wname seed seconds trace passes (clock () -. t_run) raw_wall_s (Host_speed.mean_factor ())
        (Machine.dispatch_tier ()) !Driver.enabled
        tally.attempted tally.failed failed_share
        (json_strings (List.sort_uniq compare tally.known))
        (json_strings (List.sort_uniq compare tally.unexpected));
      Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
        (tally.unexpected = [])
        tally.attempted tally.failed (json_metrics metrics)
    | _ -> usage ())
