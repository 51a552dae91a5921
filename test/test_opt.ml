(* Unit tests for the optimizing middle-end (lib/opt): dominators and
   natural loops, the program edit buffer, liveness, the e-graph-style
   rewriter, DCE, the strategy-aware SFI check passes (elision, reuse,
   hoisting) and the linear-scan register allocator.

   The SFI passes are deliberately tested on codegen-shaped workloads
   whose checked index is NOT interval-provable (it comes from a W8 heap
   load, so the abstract domain knows nothing about it): on such
   programs elision cannot fire and reuse/hoisting must carry the win.
   Every optimized program is also pushed through the static verifier
   and must come back [Safe] — the translation-validation contract. *)

open Hfi_isa
open Hfi_memory
open Hfi_pipeline
open Hfi_wasm
module Dom = Hfi_opt.Dom
module Edit = Hfi_opt.Edit
module Liveness = Hfi_opt.Liveness
module Rewrite = Hfi_opt.Rewrite
module Dce = Hfi_opt.Dce
module Regalloc = Hfi_opt.Regalloc
module Driver = Hfi_opt.Driver
module Fixpoint = Hfi_opt.Fixpoint
module Checks = Hfi_verify.Checks
module Strategy = Hfi_sfi.Strategy

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let decode prog = Uop.decode prog ~code_base:Layout.code_base
let cfg_of prog = Cfg.build (decode prog)

let count_instrs p f = Array.fold_left (fun n i -> if f i then n + 1 else n) 0 (Program.instrs p)

(* Static check instructions of the software schemes: the bound compare
   for bounds checks, the scratch-register AND for masking. *)
let check_count strategy p =
  match strategy with
  | Strategy.Bounds_checks -> count_instrs p (function Instr.Cmp_mem _ -> true | _ -> false)
  | Strategy.Masking ->
    count_instrs p (function
      | Instr.Alu (Instr.And, r, Instr.Imm _) when r = Codegen.scratch -> true
      | _ -> false)
  | Strategy.Guard_pages | Strategy.Hfi -> 0

let assert_safe name strategy prog =
  let r = Checks.verify ~name { Checks.strategy; code_base = Layout.code_base } prog in
  check_bool (name ^ " verifies Safe") true
    (match r.Hfi_verify.Report.verdict with Hfi_verify.Report.Safe -> true | _ -> false)

type measured = { instrs : int; rax : int }

let run_measured ~strategy ~optimize w =
  let inst = Instance.instantiate ~strategy ~optimize w in
  let e = Fast_engine.create (Instance.machine inst) in
  (match Fast_engine.run e with
  | Machine.Halted -> ()
  | Machine.Running | Machine.Faulted _ -> Alcotest.failf "%s did not halt" w.Instance.name);
  { instrs = Fast_engine.instrs e; rax = Instance.result_rax inst }

(* ------------------------------------------------------------------ *)
(* mask_of_size (satellite: hardening + property test)                  *)

let test_mask_of_size_basics () =
  check_int "min window 64K" 65535 (Codegen.mask_of_size 1);
  check_int "exactly one page" 65535 (Codegen.mask_of_size 65536);
  check_int "rounds up" 131071 (Codegen.mask_of_size 65537);
  check_int "pow2 size" ((1 lsl 20) - 1) (Codegen.mask_of_size (1 lsl 20))

let test_mask_of_size_rejects_nonpositive () =
  List.iter
    (fun sz ->
      check_bool
        (Printf.sprintf "size %d rejected" sz)
        true
        (match Codegen.mask_of_size sz with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ 0; -1; min_int ]

let test_mask_of_size_saturates () =
  (* Near max_int the doubling must saturate instead of overflowing to a
     negative window; the call must also terminate. *)
  check_int "max_int saturates" max_int (Codegen.mask_of_size max_int);
  check_int "above 2^61 saturates" max_int (Codegen.mask_of_size ((max_int / 2) + 7));
  check_int "largest pow2" (max_int / 2) (Codegen.mask_of_size ((max_int / 4) + 2))

let test_mask_of_size_covers_window () =
  (* Property: the rounded window always covers [0, size-1] and is a
     power-of-two window (or the saturated all-bits mask). *)
  let sizes = ref [] in
  let s = ref 1 in
  while !s > 0 && !s < max_int / 3 do
    sizes := !s :: (!s + 1) :: ((!s * 3) + 17) :: !sizes;
    s := !s * 7
  done;
  List.iter
    (fun size ->
      let m = Codegen.mask_of_size size in
      check_bool (Printf.sprintf "mask covers size %d" size) true (m >= size - 1);
      check_bool
        (Printf.sprintf "mask %d is a pow2 window" m)
        true
        (m = max_int || (m + 1) land m = 0))
    !sizes

(* ------------------------------------------------------------------ *)
(* Dominators and natural loops                                         *)

(* 0: Mov RAX,0 / 1: Mov RBX,5 / 2: Add RAX,RBX <- header
   3: Sub RBX,1 / 4: Cmp RBX,0 / 5: Jcc Gt 2 / 6: Halt *)
let loop_prog =
  Program.of_instrs
    [|
      Instr.Mov (Reg.RAX, Instr.Imm 0);
      Instr.Mov (Reg.RBX, Instr.Imm 5);
      Instr.Alu (Instr.Add, Reg.RAX, Instr.Reg Reg.RBX);
      Instr.Alu (Instr.Sub, Reg.RBX, Instr.Imm 1);
      Instr.Cmp (Reg.RBX, Instr.Imm 0);
      Instr.Jcc (Instr.Gt, 2);
      Instr.Halt;
    |]

let test_dom_tree () =
  let cfg = cfg_of loop_prog in
  check_int "three blocks" 3 (Array.length cfg.Cfg.blocks);
  let t = Dom.compute cfg in
  check_int "entry has no idom" (-1) t.Dom.idom.(0);
  check_int "loop block idom" 0 t.Dom.idom.(1);
  check_int "exit block idom" 1 t.Dom.idom.(2);
  check_bool "entry dominates exit" true (Dom.dominates t 0 2);
  check_bool "loop dominates exit" true (Dom.dominates t 1 2);
  check_bool "exit does not dominate loop" false (Dom.dominates t 2 1)

let test_natural_loop () =
  let cfg = cfg_of loop_prog in
  let t = Dom.compute cfg in
  match Dom.loops cfg t with
  | [ l ] ->
    check_int "header" 1 l.Dom.header;
    check_bool "self back edge" true (List.mem (1, 1) l.Dom.back_edges);
    check_bool "body is the header block" true (List.sort compare l.Dom.body = [ 1 ])
  | ls -> Alcotest.failf "expected one loop, got %d" (List.length ls)

(* ------------------------------------------------------------------ *)
(* Edit buffer                                                          *)

let test_edit_branch_to_deleted () =
  (* A branch to a deleted instruction lands on the next surviving one. *)
  let edit =
    Edit.create
      [| Instr.Mov (Reg.RAX, Instr.Imm 1); Instr.Jmp 2; Instr.Mov (Reg.RAX, Instr.Imm 9); Instr.Halt |]
  in
  Edit.delete edit 2;
  let p = Program.instrs (Edit.rebuild edit) in
  check_int "three instrs survive" 3 (Array.length p);
  check_bool "jmp retargeted to halt" true (p.(1) = Instr.Jmp 2);
  check_bool "halt at 2" true (p.(2) = Instr.Halt)

let test_edit_branch_to_replacement () =
  (* A branch to a replaced instruction lands at the replacement body. *)
  let edit = Edit.create [| Instr.Jcc (Instr.Eq, 1); Instr.Nop; Instr.Halt |] in
  Edit.replace edit 1 [ Instr.Mov (Reg.RCX, Instr.Imm 1); Instr.Nop ];
  let p = Program.instrs (Edit.rebuild edit) in
  check_int "four instrs" 4 (Array.length p);
  check_bool "branch still lands at index 1" true (p.(0) = Instr.Jcc (Instr.Eq, 1));
  check_bool "replacement head" true (p.(1) = Instr.Mov (Reg.RCX, Instr.Imm 1))

let test_edit_insert_before_skipped_by_branch () =
  (* insert_before is fallthrough-only: the branch skips the insertion —
     exactly the loop-preheader shape hoisting relies on. *)
  let edit = Edit.create [| Instr.Mov (Reg.RAX, Instr.Imm 1); Instr.Jmp 2; Instr.Halt |] in
  Edit.insert_before edit 2 [ Instr.Mov (Reg.RBX, Instr.Imm 7) ];
  let p = Program.instrs (Edit.rebuild edit) in
  check_int "four instrs" 4 (Array.length p);
  check_bool "branch lands past the insertion" true (p.(1) = Instr.Jmp 3);
  check_bool "insertion on the fallthrough path" true (p.(2) = Instr.Mov (Reg.RBX, Instr.Imm 7));
  check_bool "unchanged buffer reports clean" false
    (let e2 = Edit.create [| Instr.Halt |] in
     Edit.changed e2)

(* ------------------------------------------------------------------ *)
(* Liveness                                                             *)

let test_liveness_branchy () =
  (* 0: Jcc Eq 3 / 1: Mov RAX,RBX / 2: Jmp 4 / 3: Mov RAX,RCX / 4: Halt *)
  let prog =
    Program.of_instrs
      [|
        Instr.Jcc (Instr.Eq, 3);
        Instr.Mov (Reg.RAX, Instr.Reg Reg.RBX);
        Instr.Jmp 4;
        Instr.Mov (Reg.RAX, Instr.Reg Reg.RCX);
        Instr.Halt;
      |]
  in
  let uops = decode prog in
  let cfg = Cfg.build uops in
  let live = Liveness.compute uops cfg in
  let live_in i r = Liveness.is_live live.Liveness.live_in.(i) (Reg.index r) in
  check_bool "RBX live at entry" true (live_in 0 Reg.RBX);
  check_bool "RCX live at entry" true (live_in 0 Reg.RCX);
  check_bool "RAX dead at entry (defined on both paths)" false (live_in 0 Reg.RAX);
  check_bool "RBX live on fall path" true (live_in 1 Reg.RBX);
  check_bool "RCX dead on fall path" false (live_in 1 Reg.RCX);
  check_bool "RCX live on taken path" true (live_in 3 Reg.RCX);
  check_bool "halt keeps the result register live" true (live_in 4 Reg.RAX)

(* ------------------------------------------------------------------ *)
(* Rewriting and DCE                                                    *)

let rewrite prog = fst (Rewrite.run ~code_base:Layout.code_base prog)

let test_rewrite_const_fold () =
  let p =
    rewrite
      (Program.of_instrs
         [| Instr.Mov (Reg.RAX, Instr.Imm 6); Instr.Alu (Instr.Mul, Reg.RAX, Instr.Imm 7); Instr.Halt |])
  in
  check_bool "6*7 folded to 42" true
    (Array.exists (fun i -> i = Instr.Mov (Reg.RAX, Instr.Imm 42)) (Program.instrs p))

let test_rewrite_strength_reduction () =
  (* Rdtsc makes RBX opaque, so the multiply cannot fold — it must
     strength-reduce to a shift instead. *)
  let p =
    rewrite
      (Program.of_instrs
         [| Instr.Rdtsc Reg.RBX; Instr.Alu (Instr.Mul, Reg.RBX, Instr.Imm 8); Instr.Halt |])
  in
  check_bool "mul pow2 becomes shl" true
    (Array.exists (fun i -> i = Instr.Alu (Instr.Shl, Reg.RBX, Instr.Imm 3)) (Program.instrs p))

let test_rewrite_add_zero_identity () =
  let p =
    rewrite
      (Program.of_instrs
         [| Instr.Rdtsc Reg.RBX; Instr.Alu (Instr.Add, Reg.RBX, Instr.Imm 0); Instr.Halt |])
  in
  check_bool "add 0 removed" false
    (Array.exists
       (function Instr.Alu (Instr.Add, Reg.RBX, _) -> true | _ -> false)
       (Program.instrs p))

let test_dce_removes_dead_def () =
  let p, n =
    Dce.run_fix ~code_base:Layout.code_base
      (Program.of_instrs
         [| Instr.Mov (Reg.RBX, Instr.Imm 1); Instr.Mov (Reg.RAX, Instr.Imm 2); Instr.Halt |])
  in
  check_bool "one deletion" true (n >= 1);
  check_int "dead def swept" 2 (Program.length p);
  check_bool "live def kept" true
    (Array.exists (fun i -> i = Instr.Mov (Reg.RAX, Instr.Imm 2)) (Program.instrs p))

(* ------------------------------------------------------------------ *)
(* SFI passes on codegen-shaped workloads                               *)

(* One heap load at a constant index: the interval analysis proves it in
   bounds, so elision must strip the check entirely. *)
let elide_workload =
  Instance.workload ~name:"opt-elide" ~heap_bytes:65536
    ~init:(fun mem ~heap_base -> Addr_space.poke mem ~addr:(heap_base + 16) ~bytes:8 123)
    (fun cg ->
      Codegen.emit cg (Instr.Mov (Reg.RCX, Instr.Imm 16));
      Codegen.load_heap cg Instr.W8 ~dst:Reg.RBX ~addr:Reg.RCX ~offset:0;
      Codegen.emit cg (Instr.Mov (Reg.RAX, Instr.Reg Reg.RBX)))

(* Read-modify-write at an index loaded from the heap: the index is
   statically unbounded, so elision cannot fire — the second access has
   the same (reg, scale, disp) key and its check must be reused away. *)
let reuse_workload =
  Instance.workload ~name:"opt-reuse" ~heap_bytes:65536
    ~init:(fun mem ~heap_base ->
      Addr_space.poke mem ~addr:heap_base ~bytes:8 40;
      Addr_space.poke mem ~addr:(heap_base + 40) ~bytes:8 7)
    (fun cg ->
      Codegen.emit cg (Instr.Mov (Reg.RDX, Instr.Imm 0));
      Codegen.load_heap cg Instr.W8 ~dst:Reg.RCX ~addr:Reg.RDX ~offset:0;
      Codegen.load_heap cg Instr.W8 ~dst:Reg.RBX ~addr:Reg.RCX ~offset:0;
      Codegen.emit cg (Instr.Alu (Instr.Add, Reg.RBX, Instr.Imm 1));
      Codegen.store_heap cg Instr.W8 ~addr:Reg.RCX ~offset:0 ~src:(Instr.Reg Reg.RBX);
      Codegen.emit cg (Instr.Mov (Reg.RAX, Instr.Reg Reg.RBX)))

(* A loop that re-reads heap[k] where k is loop-invariant but statically
   unbounded: the per-iteration check must move to the preheader. *)
let hoist_iters = 100

let hoist_workload =
  Instance.workload ~name:"opt-hoist" ~heap_bytes:65536
    ~init:(fun mem ~heap_base ->
      Addr_space.poke mem ~addr:heap_base ~bytes:8 48;
      Addr_space.poke mem ~addr:(heap_base + 48) ~bytes:8 5)
    (fun cg ->
      Codegen.emit cg (Instr.Mov (Reg.RDX, Instr.Imm 0));
      Codegen.load_heap cg Instr.W8 ~dst:Reg.RCX ~addr:Reg.RDX ~offset:0;
      Codegen.emit cg (Instr.Mov (Reg.RAX, Instr.Imm 0));
      Codegen.emit cg (Instr.Mov (Reg.RBX, Instr.Imm hoist_iters));
      Codegen.label cg "loop";
      Codegen.load_heap cg Instr.W8 ~dst:Reg.R8 ~addr:Reg.RCX ~offset:0;
      Codegen.emit cg (Instr.Alu (Instr.Add, Reg.RAX, Instr.Reg Reg.R8));
      Codegen.emit cg (Instr.Alu (Instr.Sub, Reg.RBX, Instr.Imm 1));
      Codegen.emit cg (Instr.Cmp (Reg.RBX, Instr.Imm 0));
      Codegen.jcc cg Instr.Gt "loop")

let checked_strategies = [ Strategy.Bounds_checks; Strategy.Masking ]

let pass_changed name strategy w =
  let heap_size = Instance.round_to_wasm_page w.Instance.heap_bytes in
  let conv = Instance.opt_conv ~strategy ~heap_size in
  let prog = Instance.build_program ~strategy ~optimize:false w in
  match List.find_opt (fun r -> r.Driver.pass = name) (Driver.passes conv prog) with
  | Some r -> r.Driver.changed
  | None -> Alcotest.failf "pass %s missing from the pipeline" name

let test_elide_strips_provable_checks () =
  List.iter
    (fun strategy ->
      let tag = Strategy.to_string strategy in
      let ref_p = Instance.build_program ~strategy ~optimize:false elide_workload in
      let opt_p = Instance.build_program ~strategy ~optimize:true elide_workload in
      check_int (tag ^ ": reference has the check") 1 (check_count strategy ref_p);
      check_int (tag ^ ": check elided") 0 (check_count strategy opt_p);
      let off = run_measured ~strategy ~optimize:false elide_workload in
      let on = run_measured ~strategy ~optimize:true elide_workload in
      check_int (tag ^ ": reference result") 123 off.rax;
      check_int (tag ^ ": optimized result") 123 on.rax;
      check_bool (tag ^ ": fewer dynamic instrs") true (on.instrs < off.instrs);
      assert_safe ("elide/" ^ tag) strategy opt_p)
    checked_strategies

let test_reuse_drops_redundant_check () =
  List.iter
    (fun strategy ->
      let tag = Strategy.to_string strategy in
      let ref_p = Instance.build_program ~strategy ~optimize:false reuse_workload in
      let opt_p = Instance.build_program ~strategy ~optimize:true reuse_workload in
      check_int (tag ^ ": three checks in the reference") 3 (check_count strategy ref_p);
      (* constant-index check elided, store check reused: one survives *)
      check_int (tag ^ ": one check survives") 1 (check_count strategy opt_p);
      check_bool (tag ^ ": reuse pass fired") true (pass_changed "reuse" strategy reuse_workload >= 1);
      let off = run_measured ~strategy ~optimize:false reuse_workload in
      let on = run_measured ~strategy ~optimize:true reuse_workload in
      check_int (tag ^ ": reference result") 8 off.rax;
      check_int (tag ^ ": optimized result") 8 on.rax;
      assert_safe ("reuse/" ^ tag) strategy opt_p)
    checked_strategies

let test_hoist_moves_invariant_check () =
  List.iter
    (fun strategy ->
      let tag = Strategy.to_string strategy in
      check_bool (tag ^ ": hoist pass fired") true (pass_changed "hoist" strategy hoist_workload >= 1);
      let off = run_measured ~strategy ~optimize:false hoist_workload in
      let on = run_measured ~strategy ~optimize:true hoist_workload in
      check_int (tag ^ ": reference result") (5 * hoist_iters) off.rax;
      check_int (tag ^ ": optimized result") (5 * hoist_iters) on.rax;
      (* the hoisted check ran once instead of once per iteration *)
      let per_iter = match strategy with Strategy.Bounds_checks -> 3 | _ -> 2 in
      check_bool
        (Printf.sprintf "%s: saved >= %d dynamic instrs" tag (per_iter * (hoist_iters - 1)))
        true
        (off.instrs - on.instrs >= per_iter * (hoist_iters - 1));
      let opt_p = Instance.build_program ~strategy ~optimize:true hoist_workload in
      assert_safe ("hoist/" ^ tag) strategy opt_p)
    checked_strategies

(* ------------------------------------------------------------------ *)
(* Linear-scan register allocation                                      *)

let regalloc_pool = [ Reg.RBX; Reg.RSI; Reg.RDI; Reg.R8; Reg.R9; Reg.R10; Reg.R11 ]
let regalloc_scratch = [ Reg.R12; Reg.R15 ]
let regalloc_spill_base = Layout.globals_base + 0xC000

(* Seven simultaneously-live accumulators bumped in a loop, summed at
   the end: r_i = (i+1) + iters, so the sum is 28 + 7*iters. *)
let regalloc_iters = 50
let regalloc_expected = 28 + (List.length regalloc_pool * regalloc_iters)

let regalloc_workload =
  Instance.workload ~name:"opt-regalloc" ~heap_bytes:65536 (fun cg ->
      List.iteri (fun i r -> Codegen.emit cg (Instr.Mov (r, Instr.Imm (i + 1)))) regalloc_pool;
      Codegen.emit cg (Instr.Mov (Reg.RCX, Instr.Imm regalloc_iters));
      Codegen.label cg "loop";
      List.iter (fun r -> Codegen.emit cg (Instr.Alu (Instr.Add, r, Instr.Imm 1))) regalloc_pool;
      Codegen.emit cg (Instr.Alu (Instr.Sub, Reg.RCX, Instr.Imm 1));
      Codegen.emit cg (Instr.Cmp (Reg.RCX, Instr.Imm 0));
      Codegen.jcc cg Instr.Gt "loop";
      Codegen.emit cg (Instr.Mov (Reg.RAX, Instr.Imm 0));
      List.iter
        (fun r -> Codegen.emit cg (Instr.Alu (Instr.Add, Reg.RAX, Instr.Reg r)))
        regalloc_pool)

let test_regalloc_spills_preserve_results () =
  let stats = ref None in
  let transform p =
    match
      Regalloc.allocate ~code_base:Layout.code_base ~allocatable:regalloc_pool ~avail:4
        ~scratch:regalloc_scratch ~spill_base:regalloc_spill_base p
    with
    | Some (p', s) ->
      stats := Some s;
      p'
    | None -> Alcotest.fail "allocator refused a closed register loop"
  in
  let inst =
    Instance.instantiate ~strategy:Strategy.Hfi ~optimize:false ~transform regalloc_workload
  in
  let _, status = Instance.run_fast inst in
  check_bool "halted" true (status = Machine.Halted);
  check_int "result identical under spilling" regalloc_expected (Instance.result_rax inst);
  match !stats with
  | None -> Alcotest.fail "no stats captured"
  | Some s ->
    check_int "every pool register has an interval" (List.length regalloc_pool) s.Regalloc.intervals;
    check_int "three ranges lost the pool" 3 (List.length s.Regalloc.spilled);
    check_bool "reloads inserted" true (s.Regalloc.reloads > 0);
    check_bool "writebacks inserted" true (s.Regalloc.writebacks > 0)

let test_regalloc_full_pool_is_identity_on_results () =
  let transform p =
    match
      Regalloc.allocate ~code_base:Layout.code_base ~allocatable:regalloc_pool
        ~avail:(List.length regalloc_pool) ~scratch:regalloc_scratch
        ~spill_base:regalloc_spill_base p
    with
    | Some (p', s) ->
      check_int "nothing spilled with a full pool" 0 (List.length s.Regalloc.spilled);
      p'
    | None -> Alcotest.fail "allocator refused a closed register loop"
  in
  let inst =
    Instance.instantiate ~strategy:Strategy.Hfi ~optimize:false ~transform regalloc_workload
  in
  let _, status = Instance.run_fast inst in
  check_bool "halted" true (status = Machine.Halted);
  check_int "result" regalloc_expected (Instance.result_rax inst)

let test_regalloc_refusals () =
  let alloc prog =
    Regalloc.allocate ~code_base:Layout.code_base ~allocatable:regalloc_pool ~avail:4
      ~scratch:regalloc_scratch ~spill_base:regalloc_spill_base prog
  in
  (* Syscalls observe registers by the kernel ABI: renaming is unsound. *)
  check_bool "refuses syscalls" true
    (alloc (Program.of_instrs [| Instr.Mov (Reg.RBX, Instr.Imm 1); Instr.Syscall; Instr.Halt |])
    = None);
  (* A program READ of a scratch register would observe our clobbers. *)
  check_bool "refuses scratch reads" true
    (alloc (Program.of_instrs [| Instr.Mov (Reg.RAX, Instr.Reg Reg.R12); Instr.Halt |]) = None);
  (* Indirect flow defeats the static CFG. *)
  check_bool "refuses indirect jumps" true
    (alloc (Program.of_instrs [| Instr.Jmp_ind Reg.RBX; Instr.Halt |]) = None)

(* ------------------------------------------------------------------ *)
(* Opt-vs-reference differential over the Sightglass corpus             *)

let test_opt_backend_equivalence_and_reduction () =
  (* measure already fails the run if any optimized kernel's RAX
     diverges from the reference under any strategy; on top of that the
     acceptance bar is a >=15% dynamic-instruction reduction for the
     check-heavy schemes, and no strategy may regress. *)
  let rows = Hfi_experiments.Opt_backend.measure ~quick:true () in
  List.iter
    (fun r ->
      check_bool
        (r.Hfi_experiments.Opt_backend.strategy ^ ": no regression")
        true
        (r.Hfi_experiments.Opt_backend.instrs_on <= r.Hfi_experiments.Opt_backend.instrs_off))
    rows;
  let pct name =
    match List.find_opt (fun r -> r.Hfi_experiments.Opt_backend.strategy = name) rows with
    | Some r ->
      (1.0
      -. (float_of_int r.Hfi_experiments.Opt_backend.instrs_on
         /. float_of_int r.Hfi_experiments.Opt_backend.instrs_off))
      *. 100.0
    | None -> Alcotest.failf "strategy %s missing" name
  in
  check_bool "bounds-checks >= 15% fewer instrs" true (pct "bounds-checks" >= 15.0);
  check_bool "masking >= 15% fewer instrs" true (pct "masking" >= 15.0)

(* ------------------------------------------------------------------ *)
(* Fixpoint engine, on toy lattices over hand-built CFGs                *)

(* The engine only reads the block count; edges come from [transfer]. *)
let toy_cfg nb =
  {
    Cfg.blocks = Array.init nb (fun id -> { Cfg.id; first = id; last = id; term = Cfg.Thalt; succs = [] });
    block_of_instr = Array.init nb Fun.id;
    ret_points = [];
  }

let test_fixpoint_fold_order () =
  (* 0 -> {3, 2, 1} -> 4: block 4 has three predecessors, processed in
     the order 3, 2, 1. The join is neither associative nor commutative,
     so the narrowed in-state spells out the fold order. *)
  let join a b = "(" ^ a ^ "+" ^ b ^ ")" in
  let transfer b _ =
    match b with
    | 0 -> [ (3, "x"); (2, "x"); (1, "x") ]
    | 1 -> [ (4, "a") ]
    | 2 -> [ (4, "b") ]
    | 3 -> [ (4, "c") ]
    | _ -> []
  in
  let fx = Fixpoint.solve (toy_cfg 5) ~init:"i" ~join ~widen:join ~transfer in
  check_bool "converged" true fx.Fixpoint.converged;
  check_bool "stable" true fx.Fixpoint.stable;
  Alcotest.(check (option string)) "folded in source-block order" (Some "((a+b)+c)")
    fx.Fixpoint.in_states.(4)

let test_fixpoint_budget () =
  (* 0 -> 1 -> 1, and the loop's contribution grows on every pass with
     no widening to stop it: the ascending budget must cut it off *)
  let nb = 2 in
  let transfer b s = if b = 0 then [ (1, s) ] else [ (1, s + 1) ] in
  let fx = Fixpoint.solve (toy_cfg nb) ~init:0 ~join:max ~widen:max ~transfer in
  check_bool "not converged" false fx.Fixpoint.converged;
  check_bool "not stable" false fx.Fixpoint.stable;
  check_int "stopped at the ascending budget" ((200 * nb) + 1000) fx.Fixpoint.iterations

let test_fixpoint_narrows_widened_head () =
  (* x = 0; while x < 10 do x := x + 1 done, over intervals with
     max_int as +inf. Widening sends the head to [0, +inf]; narrowing
     must bring it back to [0, 10] and the exit to [10, 10]. *)
  let inf = max_int in
  let join (l1, h1) (l2, h2) = (min l1 l2, max h1 h2) in
  let widened = ref 0 in
  let widen (l1, h1) (l2, h2) =
    incr widened;
    ((if l2 < l1 then min_int else l1), if h2 > h1 then inf else h1)
  in
  let transfer b (lo, hi) =
    match b with
    | 0 -> [ (1, (lo, hi)) ]
    | 1 ->
      (if lo <= 9 then [ (2, (lo, min hi 9)) ] else [])
      @ if hi >= 10 then [ (3, (max lo 10, hi)) ] else []
    | 2 -> [ (1, (lo + 1, if hi = inf then inf else hi + 1)) ]
    | _ -> []
  in
  let fx = Fixpoint.solve (toy_cfg 4) ~init:(0, 0) ~join ~widen ~transfer in
  let itv = Alcotest.(option (pair int int)) in
  check_bool "stable" true fx.Fixpoint.stable;
  check_bool "the head was widened" true (!widened > 0);
  Alcotest.check itv "loop head narrowed" (Some (0, 10)) fx.Fixpoint.in_states.(1);
  Alcotest.check itv "loop body" (Some (0, 9)) fx.Fixpoint.in_states.(2);
  Alcotest.check itv "loop exit" (Some (10, 10)) fx.Fixpoint.in_states.(3)

(* ------------------------------------------------------------------ *)
(* Optimized-program pins                                               *)

(* The optimizer's output and the verifier's report on it, pinned per
   Sightglass and FaaS kernel under every strategy with the optimizer
   on. Serving admits exactly these optimized FaaS modules, so any
   change to the analysis, a pass, or the fixpoint engine that moves a
   single elision or a single verifier pass shows here.

   To regenerate after an *intentional* optimizer or verifier change:
     HFI_GOLDEN_PRINT=1 dune exec test/test_main.exe -- test opt
   and paste the printed rows over [opt_pins] below. *)

let opt_pin_compute () =
  let kernels =
    Hfi_workloads.Sightglass.all
    @ List.map
        (fun (f : Hfi_workloads.Faas_workloads.t) -> (f.name, f.workload))
        Hfi_workloads.Faas_workloads.all
  in
  List.concat_map
    (fun (name, w) ->
      List.map
        (fun strategy ->
          let reference = Instance.build_program ~strategy ~optimize:false w in
          let conv =
            Instance.opt_conv ~strategy ~heap_size:(Instance.round_to_wasm_page w.Instance.heap_bytes)
          in
          let prog = Driver.optimize conv reference in
          let r = Checks.verify ~name { Checks.strategy; code_base = Layout.code_base } prog in
          (name, Strategy.to_string strategy, Program.fingerprint prog, Hfi_verify.Report.to_json r))
        Strategy.all)
    kernels

let opt_pins =
  [
    ("blake3-scalar", "guard-pages", "93a74e2232f3aed994a801ab4332127b",
     "{\"target\":\"blake3-scalar\",\"strategy\":\"guard-pages\",\"verdict\":\"safe\",\"blocks\":6,\"instrs\":335,\"checked_mem\":65,\"checked_branches\":2,\"iterations\":22}");
    ("blake3-scalar", "bounds-checks", "9e55116cff798c6af062db08fcb1bcaf",
     "{\"target\":\"blake3-scalar\",\"strategy\":\"bounds-checks\",\"verdict\":\"safe\",\"blocks\":6,\"instrs\":336,\"checked_mem\":66,\"checked_branches\":2,\"iterations\":22}");
    ("blake3-scalar", "masking", "1f28a32c154b4112f11b5d26d8882a4f",
     "{\"target\":\"blake3-scalar\",\"strategy\":\"masking\",\"verdict\":\"safe\",\"blocks\":6,\"instrs\":335,\"checked_mem\":65,\"checked_branches\":2,\"iterations\":22}");
    ("blake3-scalar", "hfi", "e1f348db5aae8a0233e44b6313097a84",
     "{\"target\":\"blake3-scalar\",\"strategy\":\"hfi\",\"verdict\":\"safe\",\"blocks\":7,\"instrs\":340,\"checked_mem\":65,\"checked_branches\":2,\"iterations\":24}");
    ("ackermann", "guard-pages", "4b88d8f4e1401917b433f801591ac734",
     "{\"target\":\"ackermann\",\"strategy\":\"guard-pages\",\"verdict\":\"safe\",\"blocks\":12,\"instrs\":26,\"checked_mem\":9,\"checked_branches\":10,\"iterations\":213}");
    ("ackermann", "bounds-checks", "ac0bbd9838dec1fdbcb31bf7c06b5a69",
     "{\"target\":\"ackermann\",\"strategy\":\"bounds-checks\",\"verdict\":\"safe\",\"blocks\":12,\"instrs\":27,\"checked_mem\":10,\"checked_branches\":10,\"iterations\":213}");
    ("ackermann", "masking", "4b88d8f4e1401917b433f801591ac734",
     "{\"target\":\"ackermann\",\"strategy\":\"masking\",\"verdict\":\"safe\",\"blocks\":12,\"instrs\":26,\"checked_mem\":9,\"checked_branches\":10,\"iterations\":213}");
    ("ackermann", "hfi", "332e1ca57f68a27d9f90fe90175ffb78",
     "{\"target\":\"ackermann\",\"strategy\":\"hfi\",\"verdict\":\"safe\",\"blocks\":14,\"instrs\":32,\"checked_mem\":9,\"checked_branches\":10,\"iterations\":236}");
    ("base64", "guard-pages", "474a24507d2eae9549f64a346b034bc7",
     "{\"target\":\"base64\",\"strategy\":\"guard-pages\",\"verdict\":\"safe\",\"blocks\":4,\"instrs\":43,\"checked_mem\":11,\"checked_branches\":1,\"iterations\":18}");
    ("base64", "bounds-checks", "525899b1a07f05ac3bf21d1e479c9ed5",
     "{\"target\":\"base64\",\"strategy\":\"bounds-checks\",\"verdict\":\"safe\",\"blocks\":8,\"instrs\":56,\"checked_mem\":16,\"checked_branches\":5,\"iterations\":75}");
    ("base64", "masking", "316817113f537e62194f097f46b5c856",
     "{\"target\":\"base64\",\"strategy\":\"masking\",\"verdict\":\"safe\",\"blocks\":4,\"instrs\":51,\"checked_mem\":11,\"checked_branches\":1,\"iterations\":18}");
    ("base64", "hfi", "93075d1a7be86b02047f29795180a1a6",
     "{\"target\":\"base64\",\"strategy\":\"hfi\",\"verdict\":\"safe\",\"blocks\":6,\"instrs\":48,\"checked_mem\":11,\"checked_branches\":1,\"iterations\":24}");
    ("ctype", "guard-pages", "ef2fa078fc04ab3fafb5fe2c68e28ca3",
     "{\"target\":\"ctype\",\"strategy\":\"guard-pages\",\"verdict\":\"safe\",\"blocks\":4,\"instrs\":10,\"checked_mem\":2,\"checked_branches\":1,\"iterations\":20}");
    ("ctype", "bounds-checks", "8de5b601bf48c804f18f32b0a1e3436d",
     "{\"target\":\"ctype\",\"strategy\":\"bounds-checks\",\"verdict\":\"safe\",\"blocks\":4,\"instrs\":11,\"checked_mem\":3,\"checked_branches\":1,\"iterations\":20}");
    ("ctype", "masking", "ed747cc74f641599128e383327c335ee",
     "{\"target\":\"ctype\",\"strategy\":\"masking\",\"verdict\":\"safe\",\"blocks\":4,\"instrs\":10,\"checked_mem\":2,\"checked_branches\":1,\"iterations\":20}");
    ("ctype", "hfi", "e29759c76e27a6393282d07aafc57eea",
     "{\"target\":\"ctype\",\"strategy\":\"hfi\",\"verdict\":\"safe\",\"blocks\":5,\"instrs\":15,\"checked_mem\":2,\"checked_branches\":1,\"iterations\":25}");
    ("fib2", "guard-pages", "2ad5ca809840afb139bce92a2df90d4f",
     "{\"target\":\"fib2\",\"strategy\":\"guard-pages\",\"verdict\":\"safe\",\"blocks\":9,\"instrs\":20,\"checked_mem\":9,\"checked_branches\":7,\"iterations\":40}");
    ("fib2", "bounds-checks", "8ad3a755b1bc9fcfb190d7efdda2a97c",
     "{\"target\":\"fib2\",\"strategy\":\"bounds-checks\",\"verdict\":\"safe\",\"blocks\":9,\"instrs\":21,\"checked_mem\":10,\"checked_branches\":7,\"iterations\":40}");
    ("fib2", "masking", "2ad5ca809840afb139bce92a2df90d4f",
     "{\"target\":\"fib2\",\"strategy\":\"masking\",\"verdict\":\"safe\",\"blocks\":9,\"instrs\":20,\"checked_mem\":9,\"checked_branches\":7,\"iterations\":40}");
    ("fib2", "hfi", "cae79da94ee9dc93d34c9fc6f5d8f0a9",
     "{\"target\":\"fib2\",\"strategy\":\"hfi\",\"verdict\":\"safe\",\"blocks\":11,\"instrs\":26,\"checked_mem\":9,\"checked_branches\":7,\"iterations\":45}");
    ("gimli", "guard-pages", "b13f853bdd1e10586bd23a6f4be26845",
     "{\"target\":\"gimli\",\"strategy\":\"guard-pages\",\"verdict\":\"safe\",\"blocks\":8,\"instrs\":56,\"checked_mem\":7,\"checked_branches\":3,\"iterations\":53}");
    ("gimli", "bounds-checks", "69811005f62f156373610851f0bc66ca",
     "{\"target\":\"gimli\",\"strategy\":\"bounds-checks\",\"verdict\":\"safe\",\"blocks\":8,\"instrs\":57,\"checked_mem\":8,\"checked_branches\":3,\"iterations\":53}");
    ("gimli", "masking", "f588ac95215aaadb23c1ccf100cdad48",
     "{\"target\":\"gimli\",\"strategy\":\"masking\",\"verdict\":\"safe\",\"blocks\":8,\"instrs\":56,\"checked_mem\":7,\"checked_branches\":3,\"iterations\":53}");
    ("gimli", "hfi", "f48dfc04141d8b1c69b8064de04fc03f",
     "{\"target\":\"gimli\",\"strategy\":\"hfi\",\"verdict\":\"safe\",\"blocks\":9,\"instrs\":61,\"checked_mem\":7,\"checked_branches\":3,\"iterations\":55}");
    ("keccak", "guard-pages", "18c064fe3624b4548e477f77c0ca8b33",
     "{\"target\":\"keccak\",\"strategy\":\"guard-pages\",\"verdict\":\"safe\",\"blocks\":10,\"instrs\":34,\"checked_mem\":4,\"checked_branches\":4,\"iterations\":42}");
    ("keccak", "bounds-checks", "9459fb948f55c29044754f2f165c4a45",
     "{\"target\":\"keccak\",\"strategy\":\"bounds-checks\",\"verdict\":\"safe\",\"blocks\":10,\"instrs\":35,\"checked_mem\":5,\"checked_branches\":4,\"iterations\":42}");
    ("keccak", "masking", "3af209290dd30dee81dcc1d4f663bee2",
     "{\"target\":\"keccak\",\"strategy\":\"masking\",\"verdict\":\"safe\",\"blocks\":10,\"instrs\":34,\"checked_mem\":4,\"checked_branches\":4,\"iterations\":42}");
    ("keccak", "hfi", "8f0ab1a4f29eff0815ddbf5bab61c6b5",
     "{\"target\":\"keccak\",\"strategy\":\"hfi\",\"verdict\":\"safe\",\"blocks\":11,\"instrs\":39,\"checked_mem\":4,\"checked_branches\":4,\"iterations\":44}");
    ("memmove", "guard-pages", "e6aee3b68e7e6afb086ffc40d27fc5b2",
     "{\"target\":\"memmove\",\"strategy\":\"guard-pages\",\"verdict\":\"safe\",\"blocks\":8,\"instrs\":25,\"checked_mem\":5,\"checked_branches\":3,\"iterations\":28}");
    ("memmove", "bounds-checks", "96dcb96c61a97850fc9f5f9dc5f733e5",
     "{\"target\":\"memmove\",\"strategy\":\"bounds-checks\",\"verdict\":\"safe\",\"blocks\":8,\"instrs\":26,\"checked_mem\":6,\"checked_branches\":3,\"iterations\":28}");
    ("memmove", "masking", "9522d2757a347623db02a87774dfd283",
     "{\"target\":\"memmove\",\"strategy\":\"masking\",\"verdict\":\"safe\",\"blocks\":8,\"instrs\":25,\"checked_mem\":5,\"checked_branches\":3,\"iterations\":28}");
    ("memmove", "hfi", "36fd86ea664898d21feee363cc6a13c0",
     "{\"target\":\"memmove\",\"strategy\":\"hfi\",\"verdict\":\"safe\",\"blocks\":9,\"instrs\":30,\"checked_mem\":5,\"checked_branches\":3,\"iterations\":30}");
    ("minicsv", "guard-pages", "61c62b4b7252c5b4ab5bee578f1264f9",
     "{\"target\":\"minicsv\",\"strategy\":\"guard-pages\",\"verdict\":\"safe\",\"blocks\":8,\"instrs\":18,\"checked_mem\":1,\"checked_branches\":3,\"iterations\":313}");
    ("minicsv", "bounds-checks", "5bd999a5303ee73679543d5d2329ae86",
     "{\"target\":\"minicsv\",\"strategy\":\"bounds-checks\",\"verdict\":\"safe\",\"blocks\":8,\"instrs\":19,\"checked_mem\":2,\"checked_branches\":3,\"iterations\":313}");
    ("minicsv", "masking", "61c62b4b7252c5b4ab5bee578f1264f9",
     "{\"target\":\"minicsv\",\"strategy\":\"masking\",\"verdict\":\"safe\",\"blocks\":8,\"instrs\":18,\"checked_mem\":1,\"checked_branches\":3,\"iterations\":313}");
    ("minicsv", "hfi", "ba026cd5630b791efcd09db86865c47e",
     "{\"target\":\"minicsv\",\"strategy\":\"hfi\",\"verdict\":\"safe\",\"blocks\":9,\"instrs\":23,\"checked_mem\":1,\"checked_branches\":3,\"iterations\":354}");
    ("nestedloop", "guard-pages", "0dc0aad23e49386a8af39fbcd46234b2",
     "{\"target\":\"nestedloop\",\"strategy\":\"guard-pages\",\"verdict\":\"safe\",\"blocks\":7,\"instrs\":15,\"checked_mem\":0,\"checked_branches\":3,\"iterations\":85}");
    ("nestedloop", "bounds-checks", "695dae43531ac15662f8bd97cdd4fde4",
     "{\"target\":\"nestedloop\",\"strategy\":\"bounds-checks\",\"verdict\":\"safe\",\"blocks\":8,\"instrs\":16,\"checked_mem\":1,\"checked_branches\":3,\"iterations\":87}");
    ("nestedloop", "masking", "0dc0aad23e49386a8af39fbcd46234b2",
     "{\"target\":\"nestedloop\",\"strategy\":\"masking\",\"verdict\":\"safe\",\"blocks\":7,\"instrs\":15,\"checked_mem\":0,\"checked_branches\":3,\"iterations\":85}");
    ("nestedloop", "hfi", "bfbf5b6f1253785ae19d2f7ab4035d49",
     "{\"target\":\"nestedloop\",\"strategy\":\"hfi\",\"verdict\":\"safe\",\"blocks\":9,\"instrs\":21,\"checked_mem\":0,\"checked_branches\":3,\"iterations\":96}");
    ("random", "guard-pages", "d354d0aa5d7956fb8a1eb5ec0db06abe",
     "{\"target\":\"random\",\"strategy\":\"guard-pages\",\"verdict\":\"safe\",\"blocks\":4,\"instrs\":17,\"checked_mem\":0,\"checked_branches\":1,\"iterations\":10}");
    ("random", "bounds-checks", "95b6a52831caf1e9406fedfbbf489fca",
     "{\"target\":\"random\",\"strategy\":\"bounds-checks\",\"verdict\":\"safe\",\"blocks\":4,\"instrs\":18,\"checked_mem\":1,\"checked_branches\":1,\"iterations\":10}");
    ("random", "masking", "d354d0aa5d7956fb8a1eb5ec0db06abe",
     "{\"target\":\"random\",\"strategy\":\"masking\",\"verdict\":\"safe\",\"blocks\":4,\"instrs\":17,\"checked_mem\":0,\"checked_branches\":1,\"iterations\":10}");
    ("random", "hfi", "603e306147bc031458753e5011f430bb",
     "{\"target\":\"random\",\"strategy\":\"hfi\",\"verdict\":\"safe\",\"blocks\":6,\"instrs\":23,\"checked_mem\":0,\"checked_branches\":1,\"iterations\":14}");
    ("ratelimit", "guard-pages", "f6b00134e35b91d04de1e84e55525e33",
     "{\"target\":\"ratelimit\",\"strategy\":\"guard-pages\",\"verdict\":\"safe\",\"blocks\":8,\"instrs\":18,\"checked_mem\":1,\"checked_branches\":3,\"iterations\":202}");
    ("ratelimit", "bounds-checks", "68e0e943d4d159e74c37274f84460ec8",
     "{\"target\":\"ratelimit\",\"strategy\":\"bounds-checks\",\"verdict\":\"safe\",\"blocks\":8,\"instrs\":19,\"checked_mem\":2,\"checked_branches\":3,\"iterations\":202}");
    ("ratelimit", "masking", "f6b00134e35b91d04de1e84e55525e33",
     "{\"target\":\"ratelimit\",\"strategy\":\"masking\",\"verdict\":\"safe\",\"blocks\":8,\"instrs\":18,\"checked_mem\":1,\"checked_branches\":3,\"iterations\":202}");
    ("ratelimit", "hfi", "8be96d2252e704109d32d0c94be1ade0",
     "{\"target\":\"ratelimit\",\"strategy\":\"hfi\",\"verdict\":\"safe\",\"blocks\":10,\"instrs\":23,\"checked_mem\":1,\"checked_branches\":3,\"iterations\":228}");
    ("sieve", "guard-pages", "7164065c88a7ad6fd2b3813ce67a9a52",
     "{\"target\":\"sieve\",\"strategy\":\"guard-pages\",\"verdict\":\"safe\",\"blocks\":13,\"instrs\":31,\"checked_mem\":4,\"checked_branches\":7,\"iterations\":146}");
    ("sieve", "bounds-checks", "b6e6d43a7f4def8f76f9be175cbbc4a4",
     "{\"target\":\"sieve\",\"strategy\":\"bounds-checks\",\"verdict\":\"safe\",\"blocks\":14,\"instrs\":35,\"checked_mem\":6,\"checked_branches\":8,\"iterations\":173}");
    ("sieve", "masking", "4b2fd5810c3992268c30eca23cbab5c8",
     "{\"target\":\"sieve\",\"strategy\":\"masking\",\"verdict\":\"safe\",\"blocks\":13,\"instrs\":33,\"checked_mem\":4,\"checked_branches\":7,\"iterations\":146}");
    ("sieve", "hfi", "771aca83fa2a7d3def780c212fe42b16",
     "{\"target\":\"sieve\",\"strategy\":\"hfi\",\"verdict\":\"safe\",\"blocks\":14,\"instrs\":36,\"checked_mem\":4,\"checked_branches\":7,\"iterations\":169}");
    ("switch", "guard-pages", "b779b2b04135909262d27a4c2ef03529",
     "{\"target\":\"switch\",\"strategy\":\"guard-pages\",\"verdict\":\"safe\",\"blocks\":19,\"instrs\":41,\"checked_mem\":0,\"checked_branches\":15,\"iterations\":174}");
    ("switch", "bounds-checks", "fd298dc63b2411e813e4fe5fbaadf2b8",
     "{\"target\":\"switch\",\"strategy\":\"bounds-checks\",\"verdict\":\"safe\",\"blocks\":19,\"instrs\":42,\"checked_mem\":1,\"checked_branches\":15,\"iterations\":174}");
    ("switch", "masking", "b779b2b04135909262d27a4c2ef03529",
     "{\"target\":\"switch\",\"strategy\":\"masking\",\"verdict\":\"safe\",\"blocks\":19,\"instrs\":41,\"checked_mem\":0,\"checked_branches\":15,\"iterations\":174}");
    ("switch", "hfi", "966b22bc1b1dd75393d16c870e0ffac8",
     "{\"target\":\"switch\",\"strategy\":\"hfi\",\"verdict\":\"safe\",\"blocks\":21,\"instrs\":47,\"checked_mem\":0,\"checked_branches\":15,\"iterations\":178}");
    ("xblabla20", "guard-pages", "20a9a64b22f6d80d7bc892bbfd7fae76",
     "{\"target\":\"xblabla20\",\"strategy\":\"guard-pages\",\"verdict\":\"safe\",\"blocks\":6,\"instrs\":271,\"checked_mem\":65,\"checked_branches\":2,\"iterations\":22}");
    ("xblabla20", "bounds-checks", "ebe8524deba52c609ddcd260177a7273",
     "{\"target\":\"xblabla20\",\"strategy\":\"bounds-checks\",\"verdict\":\"safe\",\"blocks\":6,\"instrs\":272,\"checked_mem\":66,\"checked_branches\":2,\"iterations\":22}");
    ("xblabla20", "masking", "ad8676409441f23e3c8b05f911ebab9d",
     "{\"target\":\"xblabla20\",\"strategy\":\"masking\",\"verdict\":\"safe\",\"blocks\":6,\"instrs\":271,\"checked_mem\":65,\"checked_branches\":2,\"iterations\":22}");
    ("xblabla20", "hfi", "ca062517580c87abed689278a50b032c",
     "{\"target\":\"xblabla20\",\"strategy\":\"hfi\",\"verdict\":\"safe\",\"blocks\":7,\"instrs\":276,\"checked_mem\":65,\"checked_branches\":2,\"iterations\":24}");
    ("xchacha20", "guard-pages", "28feac9708e224c28afae3a693ae885b",
     "{\"target\":\"xchacha20\",\"strategy\":\"guard-pages\",\"verdict\":\"safe\",\"blocks\":6,\"instrs\":335,\"checked_mem\":65,\"checked_branches\":2,\"iterations\":22}");
    ("xchacha20", "bounds-checks", "9609bbf1c2786dde3676c303bad0d669",
     "{\"target\":\"xchacha20\",\"strategy\":\"bounds-checks\",\"verdict\":\"safe\",\"blocks\":6,\"instrs\":336,\"checked_mem\":66,\"checked_branches\":2,\"iterations\":22}");
    ("xchacha20", "masking", "9b4777f29a17adf4251e57c8b72f7f08",
     "{\"target\":\"xchacha20\",\"strategy\":\"masking\",\"verdict\":\"safe\",\"blocks\":6,\"instrs\":335,\"checked_mem\":65,\"checked_branches\":2,\"iterations\":22}");
    ("xchacha20", "hfi", "5c20074577bbbbe02d9b82595bab25cc",
     "{\"target\":\"xchacha20\",\"strategy\":\"hfi\",\"verdict\":\"safe\",\"blocks\":7,\"instrs\":340,\"checked_mem\":65,\"checked_branches\":2,\"iterations\":24}");
    ("XML to JSON", "guard-pages", "d66705736a8e1b0a51308067ec735505",
     "{\"target\":\"XML to JSON\",\"strategy\":\"guard-pages\",\"verdict\":\"unknown\",\"blocks\":12,\"instrs\":31,\"checked_mem\":1,\"checked_branches\":5,\"iterations\":395,\"reasons\":[{\"index\":5,\"what\":\"confinement of effective address [0x200004000..+inf] unproven\"},{\"index\":10,\"what\":\"confinement of effective address [0x200004000..+inf] unproven\"},{\"index\":15,\"what\":\"confinement of effective address [0x200004000..+inf] unproven\"},{\"index\":20,\"what\":\"confinement of effective address [0x200004000..+inf] unproven\"},{\"index\":23,\"what\":\"confinement of effective address [0x200004000..+inf] unproven\"}]}");
    ("XML to JSON", "bounds-checks", "ead6b2647f9871aa67574d2fbc639472",
     "{\"target\":\"XML to JSON\",\"strategy\":\"bounds-checks\",\"verdict\":\"safe\",\"blocks\":17,\"instrs\":47,\"checked_mem\":12,\"checked_branches\":10,\"iterations\":673}");
    ("XML to JSON", "masking", "21317398e8e550db4ae9c656a1f4ac8b",
     "{\"target\":\"XML to JSON\",\"strategy\":\"masking\",\"verdict\":\"safe\",\"blocks\":12,\"instrs\":41,\"checked_mem\":6,\"checked_branches\":5,\"iterations\":395}");
    ("XML to JSON", "hfi", "eef11fed6334d02a32fe7f6d839957d0",
     "{\"target\":\"XML to JSON\",\"strategy\":\"hfi\",\"verdict\":\"safe\",\"blocks\":14,\"instrs\":40,\"checked_mem\":6,\"checked_branches\":5,\"iterations\":410}");
    ("Image classification", "guard-pages", "2644122826e0ba6d3467e18a09418679",
     "{\"target\":\"Image classification\",\"strategy\":\"guard-pages\",\"verdict\":\"safe\",\"blocks\":6,\"instrs\":30,\"checked_mem\":8,\"checked_branches\":2,\"iterations\":21}");
    ("Image classification", "bounds-checks", "11cb824d93b1f577586d7a9652f79022",
     "{\"target\":\"Image classification\",\"strategy\":\"bounds-checks\",\"verdict\":\"safe\",\"blocks\":6,\"instrs\":31,\"checked_mem\":9,\"checked_branches\":2,\"iterations\":21}");
    ("Image classification", "masking", "be3a43152b94ae67590e1452b1e691e3",
     "{\"target\":\"Image classification\",\"strategy\":\"masking\",\"verdict\":\"safe\",\"blocks\":6,\"instrs\":30,\"checked_mem\":8,\"checked_branches\":2,\"iterations\":21}");
    ("Image classification", "hfi", "9628519c0b537bd65d5760e5064e85c9",
     "{\"target\":\"Image classification\",\"strategy\":\"hfi\",\"verdict\":\"safe\",\"blocks\":7,\"instrs\":35,\"checked_mem\":8,\"checked_branches\":2,\"iterations\":23}");
    ("Check SHA-256", "guard-pages", "8765cf2d91877aee80c4031500b47e30",
     "{\"target\":\"Check SHA-256\",\"strategy\":\"guard-pages\",\"verdict\":\"safe\",\"blocks\":6,\"instrs\":27,\"checked_mem\":2,\"checked_branches\":2,\"iterations\":22}");
    ("Check SHA-256", "bounds-checks", "3b01b38122afc8dce3c2978997285f68",
     "{\"target\":\"Check SHA-256\",\"strategy\":\"bounds-checks\",\"verdict\":\"safe\",\"blocks\":6,\"instrs\":28,\"checked_mem\":3,\"checked_branches\":2,\"iterations\":22}");
    ("Check SHA-256", "masking", "c4154a6fb6ec7670af97bec6ae8a01d8",
     "{\"target\":\"Check SHA-256\",\"strategy\":\"masking\",\"verdict\":\"safe\",\"blocks\":6,\"instrs\":27,\"checked_mem\":2,\"checked_branches\":2,\"iterations\":22}");
    ("Check SHA-256", "hfi", "3e72c54f2d03e3dc194c8ae7613c3bd0",
     "{\"target\":\"Check SHA-256\",\"strategy\":\"hfi\",\"verdict\":\"safe\",\"blocks\":8,\"instrs\":32,\"checked_mem\":2,\"checked_branches\":2,\"iterations\":26}");
    ("Templated HTML", "guard-pages", "c137345313f330e93c5d977ae057fb8d",
     "{\"target\":\"Templated HTML\",\"strategy\":\"guard-pages\",\"verdict\":\"unknown\",\"blocks\":9,\"instrs\":30,\"checked_mem\":3,\"checked_branches\":4,\"iterations\":123,\"reasons\":[{\"index\":15,\"what\":\"confinement of effective address [0x200004000..+inf] unproven\"},{\"index\":22,\"what\":\"confinement of effective address [0x200008000..+inf] unproven\"}]}");
    ("Templated HTML", "bounds-checks", "49207cb4d2707b39e38104f09bb0b840",
     "{\"target\":\"Templated HTML\",\"strategy\":\"bounds-checks\",\"verdict\":\"safe\",\"blocks\":11,\"instrs\":37,\"checked_mem\":8,\"checked_branches\":6,\"iterations\":205}");
    ("Templated HTML", "masking", "c25c6d1b7ddc7816151056ce351dc650",
     "{\"target\":\"Templated HTML\",\"strategy\":\"masking\",\"verdict\":\"safe\",\"blocks\":9,\"instrs\":34,\"checked_mem\":5,\"checked_branches\":4,\"iterations\":123}");
    ("Templated HTML", "hfi", "22f37f90659b9d165e889e5fe9c35d29",
     "{\"target\":\"Templated HTML\",\"strategy\":\"hfi\",\"verdict\":\"safe\",\"blocks\":11,\"instrs\":35,\"checked_mem\":5,\"checked_branches\":4,\"iterations\":131}");
  ]

let test_opt_pins () =
  let actual = opt_pin_compute () in
  if Sys.getenv_opt "HFI_GOLDEN_PRINT" <> None then begin
    print_newline ();
    List.iter (fun (k, s, fp, j) -> Printf.printf "    (%S, %S, %S,
     %S);
" k s fp j) actual
  end;
  check_int "cells" (List.length opt_pins) (List.length actual);
  List.iter2
    (fun (gk, gs, gfp, gj) (k, s, fp, j) ->
      let cell = Printf.sprintf "%s/%s" gk gs in
      Alcotest.(check string) "kernel order" gk k;
      Alcotest.(check string) "strategy order" gs s;
      Alcotest.(check string) (cell ^ " optimized fingerprint") gfp fp;
      Alcotest.(check string) (cell ^ " verifier report") gj j)
    opt_pins actual

let suite =
  [
    Alcotest.test_case "mask_of_size basics" `Quick test_mask_of_size_basics;
    Alcotest.test_case "mask_of_size rejects non-positive" `Quick test_mask_of_size_rejects_nonpositive;
    Alcotest.test_case "mask_of_size saturates near max_int" `Quick test_mask_of_size_saturates;
    Alcotest.test_case "mask_of_size window covers the heap" `Quick test_mask_of_size_covers_window;
    Alcotest.test_case "dominator tree" `Quick test_dom_tree;
    Alcotest.test_case "natural loop detection" `Quick test_natural_loop;
    Alcotest.test_case "edit: branch to deleted instr" `Quick test_edit_branch_to_deleted;
    Alcotest.test_case "edit: branch to replacement body" `Quick test_edit_branch_to_replacement;
    Alcotest.test_case "edit: insert_before is fallthrough-only" `Quick
      test_edit_insert_before_skipped_by_branch;
    Alcotest.test_case "liveness across branches" `Quick test_liveness_branchy;
    Alcotest.test_case "rewrite: constant folding" `Quick test_rewrite_const_fold;
    Alcotest.test_case "rewrite: strength reduction" `Quick test_rewrite_strength_reduction;
    Alcotest.test_case "rewrite: add-zero identity" `Quick test_rewrite_add_zero_identity;
    Alcotest.test_case "dce: dead definition swept" `Quick test_dce_removes_dead_def;
    Alcotest.test_case "elide: provable checks stripped" `Quick test_elide_strips_provable_checks;
    Alcotest.test_case "reuse: redundant check dropped" `Quick test_reuse_drops_redundant_check;
    Alcotest.test_case "hoist: invariant check to preheader" `Quick test_hoist_moves_invariant_check;
    Alcotest.test_case "regalloc: spills preserve results" `Quick test_regalloc_spills_preserve_results;
    Alcotest.test_case "regalloc: full pool, no spills" `Quick
      test_regalloc_full_pool_is_identity_on_results;
    Alcotest.test_case "regalloc: refuses unsound programs" `Quick test_regalloc_refusals;
    Alcotest.test_case "opt-backend: equivalence + 15% reduction" `Slow
      test_opt_backend_equivalence_and_reduction;
    Alcotest.test_case "fixpoint: joins fold in source-block order" `Quick test_fixpoint_fold_order;
    Alcotest.test_case "fixpoint: ascending budget stops divergence" `Quick test_fixpoint_budget;
    Alcotest.test_case "fixpoint: widened loop head narrowed" `Quick
      test_fixpoint_narrows_widened_head;
    Alcotest.test_case "optimized kernels: fingerprint + report pins" `Quick test_opt_pins;
  ]
