open Hfi_pipeline
open Hfi_workloads

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let run_kernel strategy w =
  let inst = Hfi_wasm.Instance.instantiate ~strategy w in
  let _, status = Hfi_wasm.Instance.run_fast ~fuel:20_000_000 inst in
  (status, Hfi_wasm.Instance.result_rax inst)

let test_kernel_completes (name, w) () =
  let status, _ = run_kernel Hfi_sfi.Strategy.Guard_pages w in
  if status <> Machine.Halted then Alcotest.failf "%s did not halt" name

let test_kernel_strategies_agree (name, w) () =
  let _, r_guard = run_kernel Hfi_sfi.Strategy.Guard_pages w in
  let _, r_bounds = run_kernel Hfi_sfi.Strategy.Bounds_checks w in
  let _, r_hfi = run_kernel Hfi_sfi.Strategy.Hfi w in
  check_int (name ^ ": bounds = guard") r_guard r_bounds;
  check_int (name ^ ": hfi = guard") r_guard r_hfi

let test_known_results () =
  List.iter
    (fun (name, w) ->
      match Sightglass.expected_result name with
      | None -> ()
      | Some expected ->
        let status, r = run_kernel Hfi_sfi.Strategy.Hfi w in
        check_bool (name ^ " halted") true (status = Machine.Halted);
        check_int name expected r)
    Sightglass.all

let test_sixteen_kernels () = check_int "16 kernels" 16 (List.length Sightglass.all)

let test_find () =
  check_bool "find works" true (Sightglass.find "sieve" == List.assoc "sieve" Sightglass.all);
  Alcotest.check_raises "unknown kernel" Not_found (fun () -> ignore (Sightglass.find "nope"))

(* Spec profiles and remaining workload families. *)

let test_spec_profiles_complete () =
  check_int "10 SPEC benchmarks" 10 (List.length Spec.profiles);
  List.iter
    (fun p ->
      check_bool (p.Spec.name ^ " wss is a power of two") true
        (p.Spec.wss_bytes land (p.Spec.wss_bytes - 1) = 0))
    Spec.profiles

let test_spec_workloads_halt () =
  List.iter
    (fun name ->
      let p = Spec.find name in
      let p = { p with Spec.iters = 4 } in
      let inst = Hfi_wasm.Instance.instantiate ~strategy:Hfi_sfi.Strategy.Hfi (Spec.workload p) in
      let _, status = Hfi_wasm.Instance.run_fast ~fuel:10_000_000 inst in
      check_bool (name ^ " halts") true (status = Machine.Halted))
    [ "400.perlbench"; "429.mcf"; "462.libquantum" ]

let test_firefox_workloads_halt () =
  List.iter
    (fun w ->
      let inst = Hfi_wasm.Instance.instantiate ~strategy:Hfi_sfi.Strategy.Hfi w in
      let _, status = Hfi_wasm.Instance.run_fast ~fuel:20_000_000 inst in
      check_bool "halts" true (status = Machine.Halted))
    [ Firefox.image_decode Firefox.R240p Firefox.Default; Firefox.font_reflow () ]

let test_firefox_row_transitions () =
  let inst =
    Hfi_wasm.Instance.instantiate ~strategy:Hfi_sfi.Strategy.Hfi
      (Firefox.image_decode Firefox.R240p Firefox.None_)
  in
  ignore (Hfi_wasm.Instance.run_fast inst);
  let st = Hfi_core.Hfi.stats (Hfi_wasm.Instance.hfi inst) in
  check_int "one serialized enter per row" (Firefox.image_rows Firefox.R240p) st.Hfi_core.Hfi.enters

let test_faas_kernels_halt () =
  List.iter
    (fun (w : Faas_workloads.t) ->
      let inst = Hfi_wasm.Instance.instantiate ~strategy:Hfi_sfi.Strategy.Guard_pages w.Faas_workloads.workload in
      let _, status = Hfi_wasm.Instance.run_fast ~fuel:20_000_000 inst in
      check_bool (w.Faas_workloads.name ^ " halts") true (status = Machine.Halted))
    Faas_workloads.all

let test_emulation_removes_hfi_instrs () =
  let w = Sightglass.find "xchacha20" in
  let native = Hfi_wasm.Instance.build_program ~strategy:Hfi_sfi.Strategy.Hfi w in
  let emu = Hfi_wasm.Emulation.transform ~heap_base:Hfi_wasm.Layout.heap_base native in
  Array.iter
    (fun i ->
      check_bool "no HFI instruction survives emulation" true
        (Hfi_wasm.Emulation.is_emulation_instr i))
    (Hfi_isa.Program.instrs emu);
  check_int "instruction count preserved (1:1 transform)"
    (Hfi_isa.Program.length native) (Hfi_isa.Program.length emu)

let suite =
  [
    Alcotest.test_case "16 kernels present" `Quick test_sixteen_kernels;
    Alcotest.test_case "known results" `Quick test_known_results;
    Alcotest.test_case "find" `Quick test_find;
  ]
  @ List.map
      (fun (name, w) ->
        Alcotest.test_case (Printf.sprintf "%s completes" name) `Quick
          (test_kernel_completes (name, w)))
      Sightglass.all
  @ List.map
      (fun (name, w) ->
        Alcotest.test_case (Printf.sprintf "%s strategy agreement" name) `Quick
          (test_kernel_strategies_agree (name, w)))
      Sightglass.all
  @ [
      Alcotest.test_case "spec profiles complete" `Quick test_spec_profiles_complete;
      Alcotest.test_case "spec workloads halt" `Quick test_spec_workloads_halt;
      Alcotest.test_case "firefox workloads halt" `Quick test_firefox_workloads_halt;
      Alcotest.test_case "firefox per-row transitions" `Quick test_firefox_row_transitions;
      Alcotest.test_case "faas kernels halt" `Quick test_faas_kernels_halt;
      Alcotest.test_case "emulation removes HFI instructions" `Quick test_emulation_removes_hfi_instrs;
    ]
