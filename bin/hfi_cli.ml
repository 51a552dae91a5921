(* hfi — command-line driver for the HFI reproduction.

   Subcommands:
     list                 enumerate experiments
     run <ids..|all>      run experiments (full or --quick)
     spectre [--kind]     run the Spectre PoCs and show the probe plots
     hw                   print HFI's hardware budget (SS4)
     sightglass <kernel>  run one Sightglass kernel under every strategy
     serve [--scenario]   run a resilient multi-tenant serving campaign
                          (--trace-chrome/--trace-jsonl export span traces)
     profile <id>         run one experiment with cycle attribution on
     metrics <id>         run one experiment with the metrics registry on
     verify <kernel..>    statically verify compiled kernels (exit 0 safe,
                          1 unsafe, 2 usage, 3 unknown-only); --all for the
                          corpus verdict table, --jobs N to shard over cores,
                          --emit-proof DIR for proof artifacts
     proofcheck <f..>     independently revalidate proof artifacts *)

open Cmdliner
module Registry = Hfi_experiments.Registry
module Report = Hfi_experiments.Report

(* Column width follows the longest id, so adding a long experiment id
   can never silently break the alignment. *)
let print_entries () =
  let width =
    List.fold_left (fun w e -> max w (String.length e.Registry.id)) 0 Registry.all
  in
  List.iter
    (fun e -> Printf.printf "%-*s  %s\n" width e.Registry.id e.Registry.description)
    Registry.all

let list_cmd =
  let doc = "List the reproducible tables and figures." in
  Cmd.v (Cmd.info "list" ~doc) Term.(const print_entries $ const ())

let run_cmd =
  let doc = "Run experiments by id (or 'all')." in
  let ids = Arg.(value & pos_all string [ "all" ] & info [] ~docv:"ID") in
  let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Reduced workload sizes.") in
  let fuzz_seed =
    Arg.(value & opt (some int) None
         & info [ "fuzz-seed" ] ~docv:"SEED" ~doc:"PRNG seed for the fuzz campaign.")
  in
  let fuzz_iters =
    Arg.(value & opt (some int) None
         & info [ "fuzz-iters" ] ~docv:"N" ~doc:"Mutated programs per fuzz campaign.")
  in
  let time =
    Arg.(value & flag
         & info [ "time" ] ~doc:"Print each experiment's wall-clock seconds after its report.")
  in
  let tier =
    Arg.(value
         & opt (some (enum [ ("ast", false); ("uop", true) ])) None
         & info [ "tier" ] ~docv:"TIER"
             ~doc:
               "Force the simulator execution tier: $(b,ast) (reference interpreter) or \
                $(b,uop) (pre-decoded \xc2\xb5op dispatch, the default). Overrides \
                HFI_DECODE_CACHE; results are identical across tiers.")
  in
  let opt =
    Arg.(value
         & opt (some (enum [ ("on", true); ("off", false) ])) None
         & info [ "opt" ] ~docv:"on|off"
             ~doc:
               "Force the optimizing Wasm middle-end $(b,on) or $(b,off) for every \
                experiment that follows the global switch. Overrides HFI_WASM_OPT; \
                experiments that pin a lowering (e.g. the Fig. 3 wasm2c model) are \
                unaffected.")
  in
  let run quick time tier opt fuzz_seed fuzz_iters ids =
    (match tier with None -> () | Some v -> Hfi_pipeline.Machine.decode_dispatch := v);
    (match opt with None -> () | Some v -> Hfi_opt.Driver.enabled := v);
    if fuzz_seed <> None || fuzz_iters <> None then
      Hfi_experiments.Fuzz.configure ~seed:fuzz_seed ~iters:fuzz_iters;
    let ids = if List.mem "all" ids then Registry.ids () else ids in
    (* Validate every id up front: a typo should fail loudly before any
       experiment burns time, not scroll past in the middle of a run. *)
    let unknown = List.filter (fun id -> Registry.find id = None) ids in
    if unknown <> [] then begin
      List.iter (fun id -> Printf.eprintf "unknown experiment %S\n" id) unknown;
      Printf.eprintf "valid ids: %s\n" (String.concat " " (Registry.ids ()));
      exit 2
    end;
    List.iter
      (fun id ->
        match Registry.find id with
        | None -> assert false (* validated above *)
        | Some e ->
          if time then begin
            let t0 = Unix.gettimeofday () in
            Report.print (e.Registry.run ~quick ());
            Printf.printf "[%s: %.1fs]\n" id (Unix.gettimeofday () -. t0)
          end
          else Report.print (e.Registry.run ~quick ()))
      ids
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const run $ quick $ time $ tier $ opt $ fuzz_seed $ fuzz_iters $ ids)

let spectre_cmd =
  let doc = "Run the Spectre-PHT/BTB proofs of concept (SS5.3, Fig. 7)." in
  let kind =
    Arg.(value & opt (enum [ ("pht", `Pht); ("btb", `Btb); ("both", `Both) ]) `Both
         & info [ "kind" ] ~docv:"KIND")
  in
  let run kind =
    let kinds =
      match kind with
      | `Pht -> [ Hfi_spectre.Attack.Pht ]
      | `Btb -> [ Hfi_spectre.Attack.Btb ]
      | `Both -> [ Hfi_spectre.Attack.Pht; Hfi_spectre.Attack.Btb ]
    in
    List.iter
      (fun k ->
        let o = Hfi_spectre.Attack.run k in
        let describe tag (r : Hfi_spectre.Attack.probe_result) =
          match r.leaked_byte with
          | Some b -> Printf.printf "%s %s: leaked byte %C\n" (Hfi_spectre.Attack.kind_name k) tag (Char.chr b)
          | None -> Printf.printf "%s %s: no leak\n" (Hfi_spectre.Attack.kind_name k) tag
        in
        describe "without HFI" o.Hfi_spectre.Attack.unprotected;
        describe "with HFI" o.Hfi_spectre.Attack.protected_)
      kinds
  in
  Cmd.v (Cmd.info "spectre" ~doc) Term.(const run $ kind)

let hw_cmd =
  let doc = "Print HFI's additional-hardware budget (SS4)." in
  let run () = Format.printf "%a" Hfi_core.Hw_budget.pp_components () in
  Cmd.v (Cmd.info "hw" ~doc) Term.(const run $ const ())

let sightglass_cmd =
  let doc = "Run one Sightglass kernel under every isolation strategy." in
  let kernel = Arg.(required & pos 0 (some string) None & info [] ~docv:"KERNEL") in
  let run kernel =
    match List.assoc_opt kernel Hfi_workloads.Sightglass.all with
    | None ->
      Printf.eprintf "unknown kernel %S; kernels: %s\n" kernel
        (String.concat " " (List.map fst Hfi_workloads.Sightglass.all));
      exit 1
    | Some w ->
      List.iter
        (fun s ->
          let inst = Hfi_wasm.Instance.instantiate ~strategy:s w in
          let cycles, status = Hfi_wasm.Instance.run_fast inst in
          Printf.printf "%-14s cycles=%-12s result=%d status=%s\n"
            (Hfi_sfi.Strategy.to_string s)
            (Hfi_util.Units.pp_cycles cycles)
            (Hfi_wasm.Instance.result_rax inst)
            (match status with
            | Hfi_pipeline.Machine.Halted -> "halted"
            | Hfi_pipeline.Machine.Faulted m -> "faulted: " ^ Hfi_core.Msr.to_string m
            | Hfi_pipeline.Machine.Running -> "running"))
        Hfi_sfi.Strategy.all
  in
  Cmd.v (Cmd.info "sightglass" ~doc) Term.(const run $ kernel)

let strategy_conv =
  Arg.enum
    (List.map (fun s -> (Hfi_sfi.Strategy.to_string s, s)) Hfi_sfi.Strategy.all)

let opt_cmd =
  let doc =
    "Show the optimizing Wasm\xe2\x86\x92ISA middle-end's work on one Sightglass kernel, pass \
     by pass: instruction count and rewrite count after each pass (elide, reuse, hoist, \
     rewrite, dce), then the static verifier's verdict on the final program. With \
     $(b,--dump), also print each pass's full program listing."
  in
  let kernel = Arg.(required & pos 0 (some string) None & info [] ~docv:"KERNEL") in
  let strategy =
    Arg.(value & opt strategy_conv Hfi_sfi.Strategy.Bounds_checks
         & info [ "strategy" ] ~docv:"STRATEGY"
             ~doc:
               "Isolation strategy to lower under (default bounds-checks; the SFI passes \
                only fire for bounds-checks and masking).")
  in
  let dump =
    Arg.(value & flag
         & info [ "dump" ] ~doc:"Print every pass's full program, not just the summary line.")
  in
  let run kernel strategy dump =
    match List.assoc_opt kernel Hfi_workloads.Sightglass.all with
    | None ->
      Printf.eprintf "unknown kernel %S; kernels: %s\n" kernel
        (String.concat " " (List.map fst Hfi_workloads.Sightglass.all));
      exit 2
    | Some w ->
      let module I = Hfi_wasm.Instance in
      let reference = I.build_program ~strategy ~optimize:false w in
      let heap_size = I.round_to_wasm_page w.I.heap_bytes in
      let conv = I.opt_conv ~strategy ~heap_size in
      let print_stage name prog changes =
        Printf.printf "%-9s %5d instrs%s\n" name (Hfi_isa.Program.length prog) changes;
        if dump then Format.printf "@[<v>%a@]@." Hfi_isa.Program.pp prog
      in
      Printf.printf "%s under %s\n" kernel (Hfi_sfi.Strategy.to_string strategy);
      print_stage "reference" reference "";
      (match Hfi_opt.Driver.passes conv reference with
      | [] -> print_endline "indirect control flow: optimizer returns the program untouched"
      | results ->
        List.iter
          (fun (r : Hfi_opt.Driver.pass_result) ->
            print_stage r.Hfi_opt.Driver.pass r.Hfi_opt.Driver.prog
              (Printf.sprintf "  %4d changes" r.Hfi_opt.Driver.changed))
          results;
        let final = (List.nth results (List.length results - 1)).Hfi_opt.Driver.prog in
        let report =
          Hfi_verify.Checks.verify ~name:kernel
            { Hfi_verify.Checks.strategy; code_base = Hfi_wasm.Layout.code_base }
            final
        in
        print_endline (Hfi_verify.Report.to_string report);
        if Hfi_verify.Report.verdict_name report.Hfi_verify.Report.verdict = "unsafe" then exit 1)
  in
  Cmd.v (Cmd.info "opt" ~doc) Term.(const run $ kernel $ strategy $ dump)

let wasm_cmd =
  let doc = "Validate and run a textual Wasm module (see Wasm_text for the grammar)." in
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.wat") in
  let strategy =
    Arg.(value & opt strategy_conv Hfi_sfi.Strategy.Hfi & info [ "strategy" ] ~docv:"STRATEGY")
  in
  let interp_only = Arg.(value & flag & info [ "interp" ] ~doc:"Reference-interpret only.") in
  let run file strategy interp_only =
    let src = In_channel.with_open_text file In_channel.input_all in
    match Hfi_wasm.Wasm_text.parse src with
    | Error e ->
      Printf.eprintf "parse error: %s\n" e;
      exit 1
    | Ok m -> begin
      match Hfi_wasm.Wasm_validate.validate m with
      | Error e ->
        Format.eprintf "validation error: %a@." Hfi_wasm.Wasm_validate.pp_error e;
        exit 1
      | Ok () ->
        Format.printf "reference: %a@." Hfi_wasm.Wasm_interp.pp_outcome
          (Hfi_wasm.Wasm_interp.run m);
        if not interp_only then begin
          let outcome, cycles = Hfi_wasm.Wasm_compile.run ~strategy m in
          Format.printf "compiled under %s: %a (%s modeled cycles)@."
            (Hfi_sfi.Strategy.to_string strategy)
            Hfi_wasm.Wasm_interp.pp_outcome outcome
            (Hfi_util.Units.pp_cycles cycles)
        end
    end
  in
  Cmd.v (Cmd.info "wasm" ~doc) Term.(const run $ file $ strategy $ interp_only)

let verify_cmd =
  let doc =
    "Statically verify sandbox safety of compiled Sightglass kernels: SFI discipline, HFI \
     region invariants, and CFI, via abstract interpretation over the decoded program. \
     Verification shards over cores ($(b,--jobs) / $(b,HFI_JOBS)) and consults the \
     persistent verdict cache when $(b,HFI_VERIFY_CACHE) is set; the output is \
     byte-identical whatever the job count. Exit status: 0 when everything is $(b,safe), 1 \
     when anything is $(b,unsafe), 3 when nothing is unsafe but some verdict is \
     $(b,unknown)."
  in
  let kernels = Arg.(value & pos_all string [ "all" ] & info [] ~docv:"KERNEL") in
  let strategy =
    Arg.(value & opt (some strategy_conv) None
         & info [ "strategy" ] ~docv:"STRATEGY"
             ~doc:"Verify under one isolation strategy only (default: all four).")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Print the sweep as one JSON object.") in
  let jobs =
    Arg.(value & opt (some int) None
         & info [ "jobs" ] ~docv:"N"
             ~doc:"Verify up to N (kernel, strategy) cells in parallel (default: \
                   $(b,HFI_JOBS), else 1).")
  in
  let all_table =
    Arg.(value & flag
         & info [ "all" ]
             ~doc:"Corpus-sweep mode: print a kernel x strategy verdict table (a $(b,*) \
                   marks a persistent-cache hit) and one summary line instead of \
                   per-report lines.")
  in
  let emit_proof =
    Arg.(value & opt (some string) None
         & info [ "emit-proof" ] ~docv:"DIR"
             ~doc:"Write a proof artifact (per-block entry invariants, JSON) for every \
                   $(b,safe) verdict to $(i,DIR)/<kernel>-<strategy>.proof.json, for \
                   independent revalidation by $(b,hfi proofcheck). Bypasses \
                   verdict-cache reads so every artifact certifies a fresh analysis run.")
  in
  let run kernels strategy json jobs all_table emit_proof =
    let names =
      if List.mem "all" kernels then List.map fst Hfi_workloads.Sightglass.all else kernels
    in
    (* Validate up front, like `run`: a typo exits 2 before any work. *)
    let unknown =
      List.filter (fun k -> List.assoc_opt k Hfi_workloads.Sightglass.all = None) names
    in
    if unknown <> [] then begin
      List.iter (fun k -> Printf.eprintf "unknown kernel %S\n" k) unknown;
      Printf.eprintf "kernels: %s\n"
        (String.concat " " (List.map fst Hfi_workloads.Sightglass.all));
      exit 2
    end;
    let strategies =
      match strategy with Some s -> [ s ] | None -> Hfi_sfi.Strategy.all
    in
    let pairs = List.map (fun k -> (k, List.assoc k Hfi_workloads.Sightglass.all)) names in
    let t0 = Unix.gettimeofday () in
    let sweep =
      Hfi_verify.Sweep.run ?jobs ~with_proofs:(emit_proof <> None) ~strategies pairs
    in
    let wall_s = Unix.gettimeofday () -. t0 in
    (* Timing goes to stderr: stdout stays byte-identical across job
       counts and cache states, so CI can diff it directly. *)
    Printf.eprintf "verified %d cells in %.3fs\n%!" (List.length sweep.Hfi_verify.Sweep.cells)
      wall_s;
    (match emit_proof with
    | Some dir ->
      let n = Hfi_verify.Sweep.emit_proofs ~dir sweep in
      Printf.eprintf "wrote %d proof artifacts to %s\n%!" n dir
    | None -> ());
    if json then print_string (Hfi_verify.Sweep.to_json sweep)
    else if all_table then begin
      print_string (Hfi_verify.Sweep.table sweep);
      print_endline (Hfi_verify.Sweep.summary sweep)
    end
    else
      List.iter
        (fun (c : Hfi_verify.Sweep.cell) ->
          print_endline (Hfi_verify.Report.to_string c.Hfi_verify.Sweep.report))
        sweep.Hfi_verify.Sweep.cells;
    match Hfi_verify.Sweep.exit_code sweep with 0 -> () | n -> exit n
  in
  Cmd.v (Cmd.info "verify" ~doc)
    Term.(const run $ kernels $ strategy $ json $ jobs $ all_table $ emit_proof)

let proofcheck_cmd =
  let doc =
    "Independently revalidate proof artifacts emitted by $(b,hfi verify --emit-proof): \
     re-derive each target kernel's compiled program, check the artifact names exactly that \
     program (fingerprint, strategy, code base, verifier version), and re-run the one-pass \
     inductive-invariant check — no fixpoint, no widening. Exit 0 when every artifact is \
     accepted, 1 when any is rejected, 2 on unreadable input."
  in
  let files = Arg.(non_empty & pos_all file [] & info [] ~docv:"PROOF.json") in
  let run files =
    let strategy_of_name n =
      List.find_opt (fun s -> Hfi_sfi.Strategy.to_string s = n) Hfi_sfi.Strategy.all
    in
    let rejected = ref false in
    let reject file errs =
      rejected := true;
      Printf.printf "%s: REJECTED\n" file;
      List.iter (fun e -> Printf.printf "  - %s\n" e) errs
    in
    List.iter
      (fun file ->
        let contents = In_channel.with_open_bin file In_channel.input_all in
        match Hfi_verify.Proof.of_json_string contents with
        | Error e -> reject file [ e ]
        | Ok p -> (
          let target = p.Hfi_verify.Proof.target in
          match
            ( List.assoc_opt target Hfi_workloads.Sightglass.all,
              strategy_of_name p.Hfi_verify.Proof.strategy )
          with
          | None, _ -> reject file [ Printf.sprintf "unknown target kernel %S" target ]
          | _, None ->
            reject file [ Printf.sprintf "unknown strategy %S" p.Hfi_verify.Proof.strategy ]
          | Some w, Some strategy -> (
            match Hfi_verify.Proofcheck.check_workload ~strategy w p with
            | Hfi_verify.Proofcheck.Accepted ->
              Printf.printf "%s: accepted (%s/%s, %d block invariants)\n" file target
                p.Hfi_verify.Proof.strategy
                (List.length p.Hfi_verify.Proof.invariants)
            | Hfi_verify.Proofcheck.Rejected errs -> reject file errs)))
      files;
    if !rejected then exit 1
  in
  Cmd.v (Cmd.info "proofcheck" ~doc) Term.(const run $ files)

let conformance_cmd =
  let doc = "Run the appendix-A.1 interface conformance checks (SS5.3)." in
  let run () =
    let results = Hfi_core.Conformance.run_all () in
    List.iter
      (fun (name, section, outcome) ->
        match outcome with
        | Ok () -> Printf.printf "  [PASS] (SS%s) %s\n" section name
        | Error m -> Printf.printf "  [FAIL] (SS%s) %s: %s\n" section name m)
      results;
    let failed = List.length (Hfi_core.Conformance.failures ()) in
    Printf.printf "%d checks, %d failures\n" (List.length results) failed;
    if failed > 0 then exit 1
  in
  Cmd.v (Cmd.info "conformance" ~doc) Term.(const run $ const ())

let trace_cmd =
  let doc =
    "Trace a Sightglass kernel's first N instructions, then print cycle statistics. With \
     $(b,--chrome) or $(b,--jsonl), also record the full structured event trace of the \
     cycle-engine run and write it to a file (the Chrome form loads directly in \
     chrome://tracing / Perfetto)."
  in
  let kernel = Arg.(required & pos 0 (some string) None & info [] ~docv:"KERNEL") in
  let limit = Arg.(value & opt int 60 & info [ "limit"; "n" ] ~docv:"N") in
  let strategy =
    Arg.(value & opt strategy_conv Hfi_sfi.Strategy.Hfi & info [ "strategy" ] ~docv:"STRATEGY")
  in
  let chrome =
    Arg.(value & opt (some string) None
         & info [ "chrome" ] ~docv:"FILE" ~doc:"Write a Chrome trace_event JSON file.")
  in
  let jsonl =
    Arg.(value & opt (some string) None
         & info [ "jsonl" ] ~docv:"FILE" ~doc:"Write the event stream as JSON lines.")
  in
  let run kernel limit strategy chrome jsonl =
    match List.assoc_opt kernel Hfi_workloads.Sightglass.all with
    | None ->
      Printf.eprintf "unknown kernel %S\n" kernel;
      exit 1
    | Some w ->
      let inst = Hfi_wasm.Instance.instantiate ~strategy w in
      let entries = Hfi_pipeline.Tracer.trace ~limit (Hfi_wasm.Instance.machine inst) in
      List.iter (fun e -> Format.printf "%a@." Hfi_pipeline.Tracer.pp_entry e) entries;
      Format.printf "... (continuing to completion on the cycle engine)@.";
      (* Event collection covers only the timed cycle-engine run below,
         not the architectural pre-trace above. *)
      if chrome <> None || jsonl <> None then begin
        Hfi_obs.Obs.set_trace true;
        Hfi_obs.Trace.clear ()
      end;
      let inst2 = Hfi_wasm.Instance.instantiate ~strategy w in
      let r = Hfi_wasm.Instance.run_cycle inst2 in
      Format.printf "@[<v>%a@]@." Hfi_pipeline.Tracer.pp_result r;
      let report file what =
        Printf.printf "wrote %s: %s (%d events, %d dropped)\n" what file
          (Hfi_obs.Trace.length ()) (Hfi_obs.Trace.dropped ())
      in
      (match chrome with
      | Some file ->
        Hfi_obs.Trace.write_chrome ~file;
        report file "Chrome trace"
      | None -> ());
      match jsonl with
      | Some file ->
        Hfi_obs.Trace.write_jsonl ~file;
        report file "JSONL trace"
      | None -> ()
  in
  Cmd.v (Cmd.info "trace" ~doc) Term.(const run $ kernel $ limit $ strategy $ chrome $ jsonl)

let profile_cmd =
  let doc =
    "Run one experiment with cycle-attribution profiling on and print the stall breakdown \
     (where every modeled cycle of the cycle engine went)."
  in
  let id = Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPERIMENT") in
  let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Reduced workload sizes.") in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE" ~doc:"Also write the breakdown as JSON to $(docv).")
  in
  let run id quick json =
    match Registry.find id with
    | None ->
      Printf.eprintf "unknown experiment %S\nvalid ids: %s\n" id
        (String.concat " " (Registry.ids ()));
      exit 2
    | Some e ->
      Hfi_obs.Obs.set_profile true;
      Hfi_obs.Profile.(reset global);
      Report.print (e.Registry.run ~quick ());
      Format.printf "== stall breakdown (cycle-engine modeled cycles) ==@.%a@." Hfi_obs.Profile.pp
        Hfi_obs.Profile.global;
      match json with
      | Some file ->
        Out_channel.with_open_text file (fun oc ->
            output_string oc Hfi_obs.Profile.(to_json global);
            output_char oc '\n')
      | None -> ()
  in
  Cmd.v (Cmd.info "profile" ~doc) Term.(const run $ id $ quick $ json)

let metrics_cmd =
  let doc =
    "Run one experiment with the metrics registry on and print every counter, gauge and \
     histogram it touched (Prometheus-style flat text, or one flat JSON object with \
     $(b,--json))."
  in
  let id = Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPERIMENT") in
  let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Reduced workload sizes.") in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the snapshot as JSON instead of text.")
  in
  let run id quick json =
    match Registry.find id with
    | None ->
      Printf.eprintf "unknown experiment %S\nvalid ids: %s\n" id
        (String.concat " " (Registry.ids ()));
      exit 2
    | Some e ->
      Hfi_obs.Obs.set_metrics true;
      Hfi_obs.Metrics.reset ();
      Report.print (e.Registry.run ~quick ());
      if json then print_endline (Hfi_obs.Metrics.to_json ())
      else begin
        print_endline "== metrics snapshot ==";
        print_string (Hfi_obs.Metrics.to_text ())
      end
  in
  Cmd.v (Cmd.info "metrics" ~doc) Term.(const run $ id $ quick $ json)

let serve_cmd =
  let doc =
    "Run a resilient multi-tenant serving campaign: verified admission, retry/backoff, \
     circuit breakers, load shedding and HFI-budget graceful degradation, under \
     deterministic injected faults."
  in
  let scenario =
    Arg.(value
         & opt (enum [ ("steady", `Steady); ("burst", `Burst); ("chaos", `Chaos) ]) `Steady
         & info [ "scenario" ] ~docv:"SCENARIO"
             ~doc:
               "$(b,steady) (Poisson load, no hazards), $(b,burst) (bursty arrivals, \
                exercises shedding) or $(b,chaos) (full injected-fault mix).")
  in
  let tenants =
    Arg.(value & opt (some int) None
         & info [ "tenants" ] ~docv:"N" ~doc:"Tenant count (default per scenario).")
  in
  let seed =
    Arg.(value & opt (some int) None
         & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed for the campaign.")
  in
  let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Reduced tenant/request counts.") in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit per-strategy counters as JSON.")
  in
  let trace_chrome =
    Arg.(value & opt (some string) None
         & info [ "trace-chrome" ] ~docv:"FILE"
             ~doc:
               "Write the per-request span trace of the campaign as a Chrome trace_event \
                file (one process per strategy, one thread per tenant; loads in \
                chrome://tracing / Perfetto). Implies span tracing on.")
  in
  let trace_jsonl =
    Arg.(value & opt (some string) None
         & info [ "trace-jsonl" ] ~docv:"FILE"
             ~doc:"Write the per-request span trace as JSON lines. Implies span tracing on.")
  in
  let slo_opt name what =
    Arg.(value & opt (some float) None
         & info [ name ] ~docv:"MS"
             ~doc:
               (Printf.sprintf
                  "Per-tenant SLO target for %s latency, in milliseconds (monitor output \
                   only; needs metrics on via HFI_OBS)." what))
  in
  let slo_p50 = slo_opt "slo-p50" "median" in
  let slo_p99 = slo_opt "slo-p99" "p99" in
  let slo_p999 = slo_opt "slo-p999" "p99.9" in
  let run scenario tenants seed quick json trace_chrome trace_jsonl slo_p50 slo_p99 slo_p999 =
    if seed <> None || tenants <> None then
      Hfi_experiments.Serving.configure ~seed ~tenants;
    if slo_p50 <> None || slo_p99 <> None || slo_p999 <> None then
      Hfi_experiments.Serving.configure_slo ~p50_ms:slo_p50 ~p99_ms:slo_p99
        ~p999_ms:slo_p999;
    let sc =
      match scenario with
      | `Steady -> Hfi_serving.Server.Steady
      | `Burst -> Hfi_serving.Server.Burst
      | `Chaos -> Hfi_serving.Server.Chaos
    in
    let tracing = trace_chrome <> None || trace_jsonl <> None in
    if tracing then Hfi_obs.Obs.set_trace true;
    (* One simulation set serves the printed report and the span
       exports, so the trace always matches the numbers shown. *)
    let cfg, reports = Hfi_experiments.Serving.simulate_all ~quick sc in
    if json then
      print_endline (Hfi_experiments.Serving.reports_json ~cfg ~scenario:sc reports)
    else Report.print (Hfi_experiments.Serving.scenario_report ~cfg ~scenario:sc reports);
    if tracing then begin
      let groups = Hfi_experiments.Serving.span_groups reports in
      let spans = List.fold_left (fun a (_, s) -> a + List.length s) 0 groups in
      let report file what =
        Printf.printf "wrote %s: %s (%d spans, %d strategies)\n" what file spans
          (List.length groups)
      in
      (match trace_chrome with
      | Some file ->
        Hfi_obs.Span.write_chrome ~file groups;
        report file "Chrome span trace"
      | None -> ());
      match trace_jsonl with
      | Some file ->
        Hfi_obs.Span.write_jsonl ~file groups;
        report file "JSONL span trace"
      | None -> ()
    end
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const run $ scenario $ tenants $ seed $ quick $ json $ trace_chrome
          $ trace_jsonl $ slo_p50 $ slo_p99 $ slo_p999)

let () =
  let doc = "Hardware-assisted Fault Isolation (ASPLOS '23) — OCaml reproduction." in
  let info = Cmd.info "hfi" ~version:"1.0.0" ~doc in
  let code =
    Cmd.eval (Cmd.group info [ list_cmd; run_cmd; serve_cmd; spectre_cmd; hw_cmd; sightglass_cmd; opt_cmd; wasm_cmd; verify_cmd; proofcheck_cmd; conformance_cmd; trace_cmd; profile_cmd; metrics_cmd ])
  in
  (* Cmdliner reports unknown flags/subcommands as its own cli_error
     (124); scripts expect the conventional usage-error code 2, matching
     the unknown-experiment-id path above. Usage is already printed. *)
  exit (if code = Cmd.Exit.cli_error then 2 else code)
