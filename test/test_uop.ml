(* The µop decode layer (lib/pipeline/uop.ml): pre-decoded metadata must
   agree with the Instr functions it mirrors, and µop dispatch must be
   observationally identical to the reference AST interpreter:
   bit-identical modeled cycles, registers, and status on both engines
   (this is what makes HFI_DECODE_CACHE a pure performance switch). *)

open Hfi_isa
open Hfi_pipeline
module Instance = Hfi_wasm.Instance
module Strategy = Hfi_sfi.Strategy
module Sightglass = Hfi_workloads.Sightglass

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let exact_float = Alcotest.(check (float 0.0))

(* Per-instruction checks assert only on failure: a passing run over
   millions of committed instructions must not log one line each. *)
let expect msg cond = if not cond then Alcotest.failf "%s" msg

let expect_int msg expected actual =
  if expected <> actual then Alcotest.failf "%s: expected %d, got %d" msg expected actual

type tier = Ast | Uop_dispatch

let tier_name = function Ast -> "ast" | Uop_dispatch -> "uop"

let with_tier tier f =
  let saved = !Machine.decode_dispatch in
  Machine.decode_dispatch := (tier = Uop_dispatch);
  Fun.protect ~finally:(fun () -> Machine.decode_dispatch := saved) f

let test_dispatch_tier_names () =
  (* every test restores the flag, so it still holds its startup value *)
  if Sys.getenv_opt "HFI_DECODE_CACHE" <> Some "0" then
    Alcotest.(check string) "default tier" "uop" (Machine.dispatch_tier ());
  List.iter
    (fun t ->
      Alcotest.(check string)
        "dispatch_tier reflects the flags" (tier_name t)
        (with_tier t Machine.dispatch_tier))
    [ Ast; Uop_dispatch ]

(* Every Sightglass kernel under every strategy: a varied mix of loads,
   stores, hmovs, bounds checks, transitions, calls, and branches. *)
let sample_instances () =
  List.concat_map
    (fun (name, w) ->
      List.map
        (fun s ->
          (Printf.sprintf "%s/%s" name (Strategy.to_string s),
           Instance.instantiate ~strategy:s w))
        Strategy.all)
    Sightglass.all

let test_decode_metadata () =
  List.iter
    (fun (name, inst) ->
      let m = Instance.machine inst in
      let prog = Instance.program inst in
      let code_base = Machine.code_base m in
      let uops = Uop.decode_fresh prog ~code_base in
      let n = Array.length uops in
      check_int (name ^ ": count") (Program.length prog) n;
      let addr = ref code_base in
      Array.iteri
        (fun i (u : Uop.t) ->
          let ins = u.Uop.instr in
          expect_int (name ^ ": index") i u.Uop.index;
          expect_int (name ^ ": length") (Instr.length ins) u.Uop.length;
          expect_int (name ^ ": fetch_addr") !addr u.Uop.fetch_addr;
          expect_int (name ^ ": addr_of_index") (Machine.addr_of_index m i) u.Uop.fetch_addr;
          addr := !addr + u.Uop.length;
          let idxs l = List.map Reg.index l in
          expect (name ^ ": reads") (idxs (Instr.reads ins) = Array.to_list u.Uop.reads);
          expect (name ^ ": writes") (idxs (Instr.writes ins) = Array.to_list u.Uop.writes);
          expect (name ^ ": block_last in range")
            (u.Uop.block_last >= i && u.Uop.block_last < n);
          (* A branch can leave the block, so it must end one. *)
          if Instr.is_branch ins then expect_int (name ^ ": branch ends block") i u.Uop.block_last;
          (* Instructions inside a block share its last index. *)
          if i < u.Uop.block_last then
            expect_int (name ^ ": shared block_last") u.Uop.block_last
              uops.(i + 1).Uop.block_last)
        uops)
    (sample_instances ())

let test_decode_memoized () =
  let inst = Instance.instantiate ~strategy:Strategy.Hfi (Sightglass.find "gimli") in
  let prog = Instance.program inst in
  let code_base = Machine.code_base (Instance.machine inst) in
  let a = Uop.decode prog ~code_base in
  let b = Uop.decode prog ~code_base in
  check_bool "same physical array" true (a == b)

(* The read-only control-flow view (flow_of/static_successors/
   is_block_head) must agree with the reference AST interpreter: every
   transition between committed instructions is one the static view
   predicts — a static successor where the flow is static, a block head
   where it is indirect. Runs on every example program under every
   strategy. *)
let test_static_successors_agree () =
  List.iter
    (fun (name, inst) ->
      let m = Instance.machine inst in
      let prog = Instance.program inst in
      let uops = Uop.decode prog ~code_base:(Machine.code_base m) in
      let prev = ref None in
      let observe (info : Machine.exec_info) =
        let j = info.Machine.index in
        (match !prev with
        | Some (p : Machine.exec_info) when p.Machine.signal = None ->
          let i = p.Machine.index in
          (match Uop.flow_of uops.(i) with
          | Uop.Indirect_jump | Uop.Indirect_call | Uop.Return ->
            if not (Uop.is_block_head uops j) then
              Alcotest.failf "%s: #%d indirect/ret lands on a block head" name i
          | Uop.Stop -> Alcotest.failf "%s: executed past halt at #%d" name i
          | _ ->
            if not (List.mem j (Uop.static_successors uops i)) then
              Alcotest.failf "%s: #%d -> #%d statically predicted" name i j)
        | _ -> ());
        (* a delivered signal redirects control to the handler: the next
           transition is the kernel's, not the program's *)
        prev := Some info;
        let h = Uop.block_head uops j in
        if not (h <= j && Uop.is_block_head uops h && uops.(h).Uop.block_last >= j) then
          Alcotest.failf "%s: #%d head #%d is a head at or before it" name j h
      in
      match Machine.run ~fuel:30_000_000 m observe with
      | Machine.Running -> Alcotest.failf "%s: out of fuel" name
      | Machine.Halted | Machine.Faulted _ -> ())
    (sample_instances ())

(* Fast engine: cycles, rax, and status identical across both tiers,
   with the AST interpreter as the reference. *)
let test_fast_engine_equivalence () =
  List.iter
    (fun (name, w) ->
      List.iter
        (fun s ->
          let run () =
            let inst = Instance.instantiate ~strategy:s w in
            let cycles, status = Instance.run_fast inst in
            (cycles, status, Instance.result_rax inst)
          in
          let c_ref, st_ref, rax_ref = with_tier Ast run in
          let c, st, rax = with_tier Uop_dispatch run in
          let id = Printf.sprintf "%s/%s/uop" name (Strategy.to_string s) in
          check_bool (id ^ ": status") true (st = st_ref);
          check_int (id ^ ": rax") rax_ref rax;
          exact_float (id ^ ": fast cycles") c_ref c)
        Strategy.all)
    Sightglass.all

(* Cycle engine: every counter of the result record must match exactly,
   not just total cycles — the dynamic hooks (caches, TLB, predictor,
   wrong-path speculation) fire identically per committed instruction. *)
let test_cycle_engine_equivalence () =
  List.iter
    (fun (name, w) ->
      List.iter
        (fun s ->
          let run () =
            let inst = Instance.instantiate ~strategy:s w in
            (Instance.run_cycle inst, Instance.result_rax inst)
          in
          let r_ref, rax_ref = with_tier Ast run in
          let r, rax = with_tier Uop_dispatch run in
          let id = Printf.sprintf "%s/%s/uop" name (Strategy.to_string s) in
          exact_float (id ^ ": cycles") r_ref.Cycle_engine.cycles r.Cycle_engine.cycles;
          check_int (id ^ ": instrs") r_ref.Cycle_engine.instrs r.Cycle_engine.instrs;
          check_int (id ^ ": icache") r_ref.Cycle_engine.icache_misses r.Cycle_engine.icache_misses;
          check_int (id ^ ": dcache") r_ref.Cycle_engine.dcache_misses r.Cycle_engine.dcache_misses;
          check_int (id ^ ": dtlb") r_ref.Cycle_engine.dtlb_misses r.Cycle_engine.dtlb_misses;
          check_int (id ^ ": cond-mispredicts") r_ref.Cycle_engine.cond_mispredicts
            r.Cycle_engine.cond_mispredicts;
          check_int (id ^ ": indirect-mispredicts") r_ref.Cycle_engine.indirect_mispredicts
            r.Cycle_engine.indirect_mispredicts;
          check_int (id ^ ": drains") r_ref.Cycle_engine.drains r.Cycle_engine.drains;
          check_int (id ^ ": transient") r_ref.Cycle_engine.transient_instrs
            r.Cycle_engine.transient_instrs;
          check_bool (id ^ ": status") true (r.Cycle_engine.status = r_ref.Cycle_engine.status);
          check_int (id ^ ": rax") rax_ref rax)
        Strategy.all)
    Sightglass.all

(* Fig. 3 synthetic SPEC profiles on the cycle engine: the exact floats
   that feed the paper's headline table must not move with the dispatch
   mode. *)
let test_fig3_equivalence () =
  let profiles = List.filteri (fun k _ -> k < 2) Hfi_workloads.Spec.profiles in
  List.iter
    (fun p ->
      List.iter
        (fun s ->
          let run () = Hfi_experiments.Fig3_spec.run_one s p ~iters_divisor:16 in
          let reference = with_tier Ast run in
          exact_float
            (Printf.sprintf "%s/%s/uop" p.Hfi_workloads.Spec.name (Strategy.to_string s))
            reference (with_tier Uop_dispatch run))
        Strategy.all)
    profiles

(* Seeded differential fuzzing: generated Wasm modules, compiled under a
   rotating strategy, must produce the same outcome and the same modeled
   cycles under both tiers. *)
let test_fuzz_differential () =
  let outcome_t = Alcotest.testable Hfi_wasm.Wasm_interp.pp_outcome ( = ) in
  let rng = Hfi_util.Prng.create ~seed:0xC0FFEE in
  let strategies = Array.of_list Strategy.all in
  for k = 1 to 200 do
    let m = Hfi_experiments.Fuzz.generate rng in
    let strategy = strategies.(k mod Array.length strategies) in
    let run () = Hfi_wasm.Wasm_compile.run ~strategy m in
    let o_ref, c_ref = with_tier Ast run in
    let o, c = with_tier Uop_dispatch run in
    let id = Printf.sprintf "fuzz #%d (%s, uop)" k (Strategy.to_string strategy) in
    Alcotest.check outcome_t (id ^ ": outcome") o_ref o;
    exact_float (id ^ ": cycles") c_ref c
  done

let suite =
  [
    Alcotest.test_case "dispatch_tier names the active tier" `Quick test_dispatch_tier_names;
    Alcotest.test_case "decode metadata matches Instr" `Quick test_decode_metadata;
    Alcotest.test_case "decode is memoized per program" `Quick test_decode_memoized;
    Alcotest.test_case "static successors agree with execution" `Quick
      test_static_successors_agree;
    Alcotest.test_case "fast engine: all tiers identical" `Quick test_fast_engine_equivalence;
    Alcotest.test_case "cycle engine: all tiers identical" `Quick test_cycle_engine_equivalence;
    Alcotest.test_case "fig3 cycles: all tiers identical" `Slow test_fig3_equivalence;
    Alcotest.test_case "fuzz differential: all tiers" `Slow test_fuzz_differential;
  ]
