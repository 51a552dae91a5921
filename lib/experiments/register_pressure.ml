(** §6.1 register pressure: the paper reserved one, then two registers in
    Wasmtime and ran its Spidermonkey benchmark, measuring 2.25% and
    2.40% overhead — a proxy for what HFI recovers by not pinning the
    heap base/bound. We replay the same idea with the real linear-scan
    allocator: the JIT-flavored workload is compiled once against the
    full HFI register pool, then {!Hfi_opt.Regalloc} re-allocates it
    onto a pool shrunk by 0, 1, and 2 registers, spilling what no
    longer fits. The overhead measured is therefore actual spill
    traffic the allocator emitted, not a modeled reservation. *)

module Spec = Hfi_workloads.Spec
module Instance = Hfi_wasm.Instance
module Layout = Hfi_wasm.Layout
module Regalloc = Hfi_opt.Regalloc

(* Spidermonkey-like: branchy interpreter loop with a sizable live set. *)
let profile =
  {
    Spec.name = "spidermonkey";
    mem_frac = 0.34;
    branch_frac = 0.22;
    wss_bytes = 256 * 1024;
    blocks = 80;
    block_ops = 40;
    live_values = 12;
    pointer_chase = false;
    streaming = false;
    iters = 150;
  }

(* Spill area of the re-allocator: above the workload's own value spill
   slots (at [globals_base]) and the heap bound cell (at +0x8000). *)
let spill_base = Layout.globals_base + 0xC000

(* Scratch for reload/writeback. R15 is the codegen scratch, unused
   under the HFI strategy; R12 is the pointer-chase register, never
   READ by non-chasing profiles (the allocator checks this). *)
let scratch = [ Reg.R15; Reg.R12 ]

let run_instance inst =
  let r = Instance.run_cycle inst in
  (match r.Cycle_engine.status with Machine.Halted -> () | _ -> failwith "reg pressure run");
  r.Cycle_engine.cycles

(* Re-allocate the full-pool program onto [npool - reserved] registers
   and run the result; also returns the allocator's spill statistics. *)
let cycles_allocator ?(quick = false) ~reserved () =
  let p = if quick then { profile with Spec.iters = 30 } else profile in
  let allocatable = Spec.pool_for Hfi_sfi.Strategy.Hfi in
  let stats = ref None in
  let transform prog =
    match
      Regalloc.allocate ~code_base:Layout.code_base ~allocatable
        ~avail:(List.length allocatable - reserved) ~scratch ~spill_base prog
    with
    | Some (prog', st) ->
      stats := Some st;
      prog'
    | None -> failwith "reg-pressure: allocator refused the workload"
  in
  let inst =
    Instance.instantiate ~strategy:Hfi_sfi.Strategy.Hfi ~transform (Spec.workload p)
  in
  let cycles = run_instance inst in
  match !stats with Some st -> (cycles, st) | None -> assert false

let run ?quick () =
  (* The three pool sizes are independent re-allocations of the same
     input program, fanned over the HFI_JOBS pool. Pool.map preserves
     input order, so jobs=1 and jobs=N render identical tables. *)
  let rows =
    Hfi_util.Pool.map (fun reserved -> cycles_allocator ?quick ~reserved ()) [ 0; 1; 2 ]
  in
  let base, one, two =
    match rows with [ b; o; t ] -> (b, o, t) | _ -> assert false
  in
  let pct (c, _) = (c /. fst base -. 1.0) *. 100.0 in
  let render label r =
    let _, (st : Regalloc.stats) = r in
    [
      label;
      (if r == base then "0.00%" else Printf.sprintf "%.2f%%" (pct r));
      string_of_int (List.length st.Regalloc.spilled);
      string_of_int st.Regalloc.reloads;
      string_of_int st.Regalloc.writebacks;
    ]
  in
  let table =
    Hfi_util.Table.render
      ~header:[ "reserved registers"; "overhead"; "spilled"; "reloads"; "writebacks" ]
      [ render "0 (baseline)" base; render "1" one; render "2" two ]
  in
  {
    Report.id = "reg-pressure";
    data = [];
    title = "reserved-register overhead (Spidermonkey-like workload, linear-scan allocator)";
    paper_claim = "reserving one register costs 2.25%, two registers 2.40%";
    table;
    verdict =
      Printf.sprintf "one register %.2f%% (%d spilled), two registers %.2f%% (%d spilled)"
        (pct one)
        (List.length (snd one).Regalloc.spilled)
        (pct two)
        (List.length (snd two).Regalloc.spilled);
  }
