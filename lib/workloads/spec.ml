open Hfi_isa
module Cg = Hfi_wasm.Codegen
module Inst = Hfi_wasm.Instance
module Prng = Hfi_util.Prng

type profile = {
  name : string;
  mem_frac : float;
  branch_frac : float;
  wss_bytes : int;
  blocks : int;
  block_ops : int;
  live_values : int;
  pointer_chase : bool;
  streaming : bool;
  iters : int;
}

let mk name mem_frac branch_frac wss_kib blocks block_ops live_values ~chase ~stream iters =
  {
    name;
    mem_frac;
    branch_frac;
    wss_bytes = wss_kib * 1024;
    blocks;
    block_ops;
    live_values;
    pointer_chase = chase;
    streaming = stream;
    iters;
  }

let profiles =
  [
    mk "400.perlbench" 0.38 0.20 256 60 40 12 ~chase:false ~stream:false 220;
    mk "401.bzip2" 0.45 0.10 1024 60 40 12 ~chase:false ~stream:false 220;
    mk "403.gcc" 0.38 0.22 512 700 7 12 ~chase:false ~stream:false 120;
    mk "429.mcf" 0.50 0.08 1024 40 40 10 ~chase:true ~stream:false 330;
    mk "445.gobmk" 0.38 0.24 512 1400 6 8 ~chase:false ~stream:false 85;
    mk "456.hmmer" 0.45 0.08 128 40 48 11 ~chase:false ~stream:false 280;
    mk "458.sjeng" 0.33 0.22 256 60 40 12 ~chase:false ~stream:false 220;
    mk "462.libquantum" 0.48 0.05 2048 30 48 10 ~chase:false ~stream:true 370;
    mk "464.h264ref" 0.48 0.12 512 50 44 12 ~chase:false ~stream:false 250;
    mk "473.astar" 0.45 0.12 512 60 40 11 ~chase:true ~stream:false 220;
  ]

let find name = List.find (fun p -> p.name = name) profiles

(* Values live in this pool; the extras R13/R14 are available only when
   the isolation strategy does not reserve them — HFI's register-pressure
   advantage (§6.1). Anything beyond the pool spills to the globals
   area. RAX is the checksum accumulator, RCX the iteration counter,
   RDX the address scratch; R15 belongs to the codegen. *)
let base_pool = [ Reg.RBX; Reg.RSI; Reg.RDI; Reg.R8; Reg.R9; Reg.R10; Reg.R11 ]
let extra_pool = [ Reg.R13; Reg.R14 ]
let chase_reg = Reg.R12

(* RBP carries a data-independent LCG whose stream drives addresses and
   branch outcomes. Keeping it identical across strategies ensures the
   cache and predictor behaviour of a benchmark does not depend on the
   isolation scheme — only the instrumentation does. *)
let entropy_reg = Reg.RBP

let pool_for strategy =
  let reserved = Hfi_sfi.Strategy.reserved_registers strategy in
  base_pool @ List.filter (fun r -> not (List.mem r reserved)) extra_pool

let spill_slot v = Hfi_wasm.Layout.globals_base + (8 * v)

(* Cold values spill first: pick values harmonically so registers hold
   the hot ones, as a real allocator would. *)
let pick_value rng k =
  let h = ref 0.0 in
  for v = 1 to k do
    h := !h +. (1.0 /. float_of_int v)
  done;
  let x = Prng.float rng !h in
  let rec go v acc =
    let acc = acc +. (1.0 /. float_of_int (v + 1)) in
    if x < acc || v = k - 1 then v else go (v + 1) acc
  in
  go 0 0.0

let i cg x = Cg.emit cg x

let workload p =
  let live = p.live_values in
  let wss_mask = p.wss_bytes - 1 in
  let words = p.wss_bytes / 8 in
  Inst.workload ~name:p.name ~heap_bytes:(max p.wss_bytes 65536)
    ~init:(fun mem ~heap_base ->
      let rng = Prng.create ~seed:(Hashtbl.hash p.name) in
      if p.pointer_chase then begin
        (* Permutation ring of word indices for dependent loads. *)
        let perm = Array.init words Fun.id in
        Prng.shuffle rng perm;
        for k = 0 to words - 1 do
          let next = perm.((k + 1) mod words) in
          Hfi_memory.Addr_space.poke mem ~addr:(heap_base + (8 * perm.(k))) ~bytes:8 next
        done
      end
      else
        for k = 0 to words - 1 do
          Hfi_memory.Addr_space.poke mem ~addr:(heap_base + (8 * k)) ~bytes:8
            ((k * 0x9e3779b9) lxor (k lsl 17))
        done)
    (fun cg ->
      let open Instr in
      (* The op stream must be identical across strategies: seed depends
         only on the profile. *)
      let rng = Prng.create ~seed:(Hashtbl.hash p.name) in
      let pool = Array.of_list (pool_for (Cg.strategy cg)) in
      let npool = Array.length pool in
      let reg_of v = pool.(v) in
      (* No And: it would collapse value entropy and with it the
         address distribution that drives cache behaviour. *)
      let alu_ops = [| Add; Sub; Xor; Or |] in
      (* Initialize values and the chase register. *)
      i cg (Mov (Reg.RAX, Imm 0));
      for v = 0 to min live npool - 1 do
        i cg (Mov (reg_of v, Imm (v * 77 + 13)))
      done;
      for v = npool to live - 1 do
        i cg (Mov (Reg.RDX, Imm (v * 77 + 13)));
        i cg (Store (W8, Instr.mem ~disp:(spill_slot v) (), Reg Reg.RDX))
      done;
      i cg (Mov (chase_reg, Imm 0));
      i cg (Mov (entropy_reg, Imm 987654321));
      let step_entropy () =
        i cg (Alu (Mul, entropy_reg, Imm 0x5DEECE66D));
        i cg (Alu (Add, entropy_reg, Imm 11));
        i cg (Alu (And, entropy_reg, Imm 0x3fffffff))
      in
      let emit_alu v =
        let op = alu_ops.(Prng.int rng (Array.length alu_ops)) in
        let operand =
          if Prng.bool rng then Imm (1 + Prng.int rng 255)
          else Reg (reg_of (Prng.int rng (min live npool)))
        in
        if v < npool then i cg (Alu (op, reg_of v, operand))
        else begin
          (* Spilled value: reload, operate, store back — the register
             pressure cost the reserved heap registers induce. *)
          i cg (Load (W8, Reg.RDX, Instr.mem ~disp:(spill_slot v) ()));
          i cg (Alu (op, Reg.RDX, operand));
          i cg (Store (W8, Instr.mem ~disp:(spill_slot v) (), Reg Reg.RDX))
        end
      in
      let emit_mem v =
        let dst = reg_of (v mod npool) in
        if p.pointer_chase then begin
          (* Dependent load through the permutation ring. *)
          Cg.load_heap_scaled cg W8 ~dst:chase_reg ~addr:chase_reg ~scale:8 ~offset:0;
          i cg (Alu (Add, Reg.RAX, Reg chase_reg))
        end
        else begin
          if p.streaming then begin
            (* Sequential stream: index advances with the op count. *)
            i cg (Mov (Reg.RDX, Reg Reg.RCX));
            i cg (Alu (Shl, Reg.RDX, Imm 3));
            i cg (Alu (Add, Reg.RDX, Imm (8 * Prng.int rng 64)));
            i cg (Alu (And, Reg.RDX, Imm wss_mask))
          end
          else begin
            (* Step the LCG only occasionally; vary the bits used so
               consecutive accesses differ. 70% of accesses stay in a hot
               16 KiB window (L1-resident), the rest roam the working
               set — a realistic hit-rate mix. *)
            if Prng.float rng 1.0 < 0.3 then step_entropy ();
            i cg (Mov (Reg.RDX, Reg entropy_reg));
            (let k = Prng.int rng 7 in
             if k > 0 then i cg (Alu (Shr, Reg.RDX, Imm k)));
            let mask =
              if Prng.float rng 1.0 < 0.7 then (16 * 1024) - 1 else wss_mask
            in
            i cg (Alu (And, Reg.RDX, Imm (mask land lnot 7)))
          end;
          if Prng.float rng 1.0 < 0.7 then Cg.load_heap cg W8 ~dst ~addr:Reg.RDX ~offset:0
          else Cg.store_heap cg W8 ~addr:Reg.RDX ~offset:0 ~src:(Reg dst)
        end
      in
      let emit_branch _v =
        step_entropy ();
        i cg (Cmp (entropy_reg, Imm (Prng.int rng 0x40000000)));
        let skip = Cg.fresh_label cg "br" in
        Cg.jcc cg (if Prng.bool rng then Lt else Ge) skip;
        i cg (Alu (Xor, Reg.RAX, Imm (Prng.int rng 65536)));
        Cg.label cg skip
      in
      (* Body: [blocks] blocks traversed in a shuffled order via explicit
         jumps — a jumpy fetch pattern the next-line prefetcher cannot
         hide, so code footprint beyond the i-cache costs (the 445.gobmk
         effect, amplified by hmov's longer encodings). The traversal
         order is profile-seeded, identical across strategies. *)
      i cg (Mov (Reg.RCX, Imm 0));
      let order = Array.init p.blocks Fun.id in
      Prng.shuffle rng order;
      let block_label b = Printf.sprintf "block_%d" b in
      let succ_of = Array.make p.blocks (-1) in
      for k = 0 to p.blocks - 2 do
        succ_of.(order.(k)) <- order.(k + 1)
      done;
      let top = Cg.fresh_label cg "outer" in
      Cg.label cg top;
      Cg.jmp cg (block_label order.(0));
      for b = 0 to p.blocks - 1 do
        Cg.label cg (block_label b);
        for _op = 1 to p.block_ops do
          let v = pick_value rng live in
          let x = Prng.float rng 1.0 in
          if x < p.mem_frac then emit_mem v
          else if x < p.mem_frac +. p.branch_frac then emit_branch v
          else emit_alu v
        done;
        if succ_of.(b) >= 0 then Cg.jmp cg (block_label succ_of.(b))
        else Cg.jmp cg "loop_tail"
      done;
      Cg.label cg "loop_tail";
      (* Fold a couple of live registers into the checksum each pass. *)
      i cg (Alu (Add, Reg.RAX, Reg (reg_of 0)));
      i cg (Alu (Xor, Reg.RAX, Reg (reg_of 1)));
      i cg (Alu (Add, Reg.RCX, Imm 1));
      i cg (Cmp (Reg.RCX, Imm p.iters));
      Cg.jcc cg Lt top)
