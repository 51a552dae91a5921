type access = { addr : int; bytes : int; write : bool; via_hmov : bool }

type branch_kind = Cond | Uncond | Indirect | Call_k | Ret_k

type branch_info = { kind : branch_kind; taken : bool; target : int; fallthrough : int }

type exec_info = {
  index : int;
  instr : Instr.t;
  uop : Uop.t;
  mem : access option;
  branch : branch_info option;
  serializing : bool;
  kernel_cycles : float;
  signal : Msr.t option;
}

type status = Running | Halted | Faulted of Msr.t

type t = {
  regs : int array;
  mutable pc : int;
  prog : Program.t;
  code_base : int;
  uops : Uop.t array;  (* pre-decoded, shared per program via Uop.decode *)
  mem_ : Addr_space.t;
  kernel : Kernel.t;
  hfi : Hfi.t;
  signal_handler : int option;
  mutable status_ : status;
  (* last Cmp operands, split into two int fields: a tuple here would
     cost an allocation plus a write barrier on every compare *)
  mutable cmp_a : int;
  mutable cmp_b : int;
  mutable instr_count : int;
  mutable last_signal : Msr.t option;
  mutable last_fault : Hfi_util.Fault.t option;
  mutable now : unit -> int;
  mutable on_flush : int -> unit;
  mutable resume : int option;
      (* instruction to resume at after hfi_reenter (set when a syscall
         is redirected to the exit handler) *)
}

(* Dispatch-tier selection. Two tiers:

     uop    (default)             pre-decoded µop records
     ast    (HFI_DECODE_CACHE=0)  reference match-on-AST interpreter

   Both must produce bit-identical modeled results — the equivalence
   tests flip [decode_dispatch] in-process. *)
let decode_dispatch =
  ref (match Sys.getenv_opt "HFI_DECODE_CACHE" with Some "0" -> false | _ -> true)

let dispatch_tier () = if !decode_dispatch then "uop" else "ast"

let create ?signal_handler ~prog ~code_base ~mem ~kernel ~hfi ~entry () =
  {
    regs = Array.make Reg.count 0;
    pc = entry;
    prog;
    code_base;
    uops = Uop.decode prog ~code_base;
    mem_ = mem;
    kernel;
    hfi;
    signal_handler;
    status_ = Running;
    cmp_a = 0;
    cmp_b = 0;
    instr_count = 0;
    last_signal = None;
    last_fault = None;
    now = (fun () -> 0);
    on_flush = ignore;
    resume = None;
  }

let set_now t f = t.now <- f
let set_on_flush t f = t.on_flush <- f
let regs t = t.regs
(* [Reg.index] is total into [0, Reg.count) and [regs] has exactly
   [Reg.count] slots, so the bounds checks are provably dead — and these
   two run several times per simulated instruction. *)
let get_reg t r = Array.unsafe_get t.regs (Reg.index r)
let set_reg t r v = Array.unsafe_set t.regs (Reg.index r) v
let pc t = t.pc
let set_pc t i = t.pc <- i
let status t = t.status_
let hfi t = t.hfi
let kernel t = t.kernel
let mem t = t.mem_
let program t = t.prog
let code_base t = t.code_base
let instr_count t = t.instr_count
let last_signal t = t.last_signal
let last_fault t = t.last_fault

let addr_of_index t i = t.uops.(i).Uop.fetch_addr

let index_of_addr t a =
  if a < t.code_base then None else Program.index_of_byte t.prog (a - t.code_base)

let src_value t = function Instr.Imm i -> i | Instr.Reg r -> get_reg t r

let effective_address t (m : Instr.mem) =
  let base = match m.base with Some r -> get_reg t r | None -> 0 in
  let index = match m.index with Some r -> get_reg t r | None -> 0 in
  base + (index * m.scale) + m.disp

let mask_width w v =
  match w with
  | Instr.W1 -> v land 0xff
  | Instr.W2 -> v land 0xffff
  | Instr.W4 -> v land 0xffffffff
  | Instr.W8 -> v

(* Signals: deliver to the runtime's handler if one is registered,
   otherwise end the run. *)
exception Trap_exn of Msr.t

let alu op a b =
  match op with
  | Instr.Add -> a + b
  | Instr.Sub -> a - b
  | Instr.And -> a land b
  | Instr.Or -> a lor b
  | Instr.Xor -> a lxor b
  | Instr.Shl -> a lsl (b land 63)
  | Instr.Shr -> a lsr (b land 63)
  | Instr.Sar -> a asr (b land 63)
  | Instr.Mul -> a * b
  | Instr.Div -> if b = 0 then raise (Trap_exn (Msr.Hardware_fault 0)) else a / b

(* Committed data access with HFI implicit-region check then paging. *)
let data_access t ~addr ~bytes ~write ~value =
  let acc = if write then `Write else `Read in
  (match Hfi.check_data_access t.hfi ~addr ~bytes acc with
  | Ok () -> ()
  | Error v ->
    ignore (Hfi.record_violation t.hfi v);
    raise (Trap_exn (Msr.Bounds_violation v)));
  try
    if write then begin
      Addr_space.store t.mem_ ~addr ~bytes value;
      0
    end
    else Addr_space.load t.mem_ ~addr ~bytes
  with Addr_space.Fault f ->
    Hfi.on_hardware_fault t.hfi ~addr:f.addr;
    raise (Trap_exn (Msr.Hardware_fault f.addr))

let hmov_resolve t ~region (m : Instr.mem) ~bytes ~write =
  let index_value = match m.index with Some r -> get_reg t r | None -> 0 in
  let ea = Hfi.check_hmov_ea t.hfi ~region ~index_value ~scale:m.scale ~disp:m.disp ~bytes ~write in
  if ea >= 0 then ea
  else begin
    match Hfi.check_hmov t.hfi ~region ~index_value ~scale:m.scale ~disp:m.disp ~bytes ~write with
    | Ok ea -> ea
    | Error v ->
      ignore (Hfi.record_violation t.hfi v);
      raise (Trap_exn (Msr.Bounds_violation v))
  end

let hmov_paged_access t ~addr ~bytes ~write ~value =
  try
    if write then begin
      Addr_space.store t.mem_ ~addr ~bytes value;
      0
    end
    else Addr_space.load t.mem_ ~addr ~bytes
  with Addr_space.Fault f ->
    Hfi.on_hardware_fault t.hfi ~addr:f.addr;
    raise (Trap_exn (Msr.Hardware_fault f.addr))

let out_of_range_fault t =
  let reason = Msr.Hardware_fault (addr_of_index t 0) in
  t.status_ <- Faulted reason;
  t.last_fault <- Some (Msr.to_fault ~cycle:t.instr_count reason);
  t.status_

let check_ifetch t ~addr =
  match Hfi.check_ifetch t.hfi ~addr with
  | Ok () -> ()
  | Error v ->
    ignore (Hfi.record_violation t.hfi v);
    raise (Trap_exn (Msr.Bounds_violation v))

(* ------------------------------------------------------------------ *)
(* Structured event trace: one event per committed instruction when
   tracing is on. Out of line so the hot path pays only the flag test at
   the call site; [ts] is the modeled clock via the installed rdtsc. *)
let trace_commit t (info : exec_info) =
  let ts = float_of_int (t.now ()) in
  (match info.instr with
   | Instr.Hfi_enter _ -> Hfi_obs.Trace.(emit Transition ~ts ~a:0)
   | Instr.Hfi_exit -> Hfi_obs.Trace.(emit Transition ~ts ~a:1)
   | Instr.Hfi_reenter -> Hfi_obs.Trace.(emit Transition ~ts ~a:2)
   | Instr.Syscall -> Hfi_obs.Trace.(emit Syscall ~ts ~a:info.index)
   | _ -> Hfi_obs.Trace.(emit Commit ~ts ~a:info.index));
  match info.signal with
  | Some reason -> Hfi_obs.Trace.(emit Fault ~ts ~a:(Msr.encode reason))
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Reference interpreter: match on the instruction AST. Kept verbatim as
   the semantic baseline the µop path is tested against. *)

let step t (observe : exec_info -> unit) =
  match t.status_ with
  | Halted | Faulted _ -> t.status_
  | Running ->
    if t.pc < 0 || t.pc >= Program.length t.prog then out_of_range_fault t
    else begin
      let index = t.pc in
      let ins = Program.get t.prog index in
      let pc_addr = addr_of_index t index in
      let mem_acc = ref None in
      let branch = ref None in
      let signal = ref None in
      let kcycles0 = Kernel.cycles t.kernel in
      let drains0 = (Hfi.stats t.hfi).Hfi.drains in
      let fallthrough = index + 1 in
      let next = ref fallthrough in
      t.instr_count <- t.instr_count + 1;
      (try
         (* Decode-stage code-region check (§4.1). *)
         check_ifetch t ~addr:pc_addr;
         match ins with
         | Instr.Mov (d, s) -> set_reg t d (src_value t s)
         | Instr.Load (w, d, m) ->
           let addr = effective_address t m in
           let bytes = Instr.width_bytes w in
           mem_acc := Some { addr; bytes; write = false; via_hmov = false };
           set_reg t d (data_access t ~addr ~bytes ~write:false ~value:0)
         | Instr.Store (w, m, s) ->
           let addr = effective_address t m in
           let bytes = Instr.width_bytes w in
           mem_acc := Some { addr; bytes; write = true; via_hmov = false };
           ignore
             (data_access t ~addr ~bytes ~write:true ~value:(mask_width w (src_value t s)))
         | Instr.Hload (n, w, d, m) ->
           let bytes = Instr.width_bytes w in
           let addr = hmov_resolve t ~region:n m ~bytes ~write:false in
           mem_acc := Some { addr; bytes; write = false; via_hmov = true };
           set_reg t d (hmov_paged_access t ~addr ~bytes ~write:false ~value:0)
         | Instr.Hstore (n, w, m, s) ->
           let bytes = Instr.width_bytes w in
           let addr = hmov_resolve t ~region:n m ~bytes ~write:true in
           mem_acc := Some { addr; bytes; write = true; via_hmov = true };
           ignore
             (hmov_paged_access t ~addr ~bytes ~write:true
                ~value:(mask_width w (src_value t s)))
         | Instr.Lea (d, m) -> set_reg t d (effective_address t m)
         | Instr.Alu (op, d, s) -> set_reg t d (alu op (get_reg t d) (src_value t s))
         | Instr.Cmp (d, s) ->
           t.cmp_b <- src_value t s;
           t.cmp_a <- get_reg t d
         | Instr.Cmp_mem (d, m) ->
           let addr = effective_address t m in
           mem_acc := Some { addr; bytes = 8; write = false; via_hmov = false };
           let b = data_access t ~addr ~bytes:8 ~write:false ~value:0 in
           t.cmp_b <- b;
           t.cmp_a <- get_reg t d
         | Instr.Jmp tgt ->
           next := tgt;
           branch := Some { kind = Uncond; taken = true; target = tgt; fallthrough }
         | Instr.Jcc (c, tgt) ->
           let taken = Instr.eval_cond c t.cmp_a t.cmp_b in
           if taken then next := tgt;
           branch := Some { kind = Cond; taken; target = !next; fallthrough }
         | Instr.Jmp_ind r -> begin
           let a = get_reg t r in
           match index_of_addr t a with
           | Some i ->
             next := i;
             branch := Some { kind = Indirect; taken = true; target = i; fallthrough }
           | None -> raise (Trap_exn (Msr.Hardware_fault a))
         end
         | Instr.Call tgt ->
           let rsp = get_reg t Reg.RSP - 8 in
           set_reg t Reg.RSP rsp;
           mem_acc := Some { addr = rsp; bytes = 8; write = true; via_hmov = false };
           ignore
             (data_access t ~addr:rsp ~bytes:8 ~write:true ~value:(addr_of_index t fallthrough));
           next := tgt;
           branch := Some { kind = Call_k; taken = true; target = tgt; fallthrough }
         | Instr.Call_ind r -> begin
           let a = get_reg t r in
           match index_of_addr t a with
           | Some i ->
             let rsp = get_reg t Reg.RSP - 8 in
             set_reg t Reg.RSP rsp;
             mem_acc := Some { addr = rsp; bytes = 8; write = true; via_hmov = false };
             ignore
               (data_access t ~addr:rsp ~bytes:8 ~write:true
                  ~value:(addr_of_index t fallthrough));
             next := i;
             branch := Some { kind = Call_k; taken = true; target = i; fallthrough }
           | None -> raise (Trap_exn (Msr.Hardware_fault a))
         end
         | Instr.Ret -> begin
           let rsp = get_reg t Reg.RSP in
           mem_acc := Some { addr = rsp; bytes = 8; write = false; via_hmov = false };
           let ra = data_access t ~addr:rsp ~bytes:8 ~write:false ~value:0 in
           set_reg t Reg.RSP (rsp + 8);
           match index_of_addr t ra with
           | Some i ->
             next := i;
             branch := Some { kind = Ret_k; taken = true; target = i; fallthrough }
           | None -> raise (Trap_exn (Msr.Hardware_fault ra))
         end
         | Instr.Push r ->
           let rsp = get_reg t Reg.RSP - 8 in
           set_reg t Reg.RSP rsp;
           mem_acc := Some { addr = rsp; bytes = 8; write = true; via_hmov = false };
           ignore (data_access t ~addr:rsp ~bytes:8 ~write:true ~value:(get_reg t r))
         | Instr.Pop r ->
           let rsp = get_reg t Reg.RSP in
           mem_acc := Some { addr = rsp; bytes = 8; write = false; via_hmov = false };
           set_reg t r (data_access t ~addr:rsp ~bytes:8 ~write:false ~value:0);
           set_reg t Reg.RSP (rsp + 8)
         | Instr.Syscall -> begin
           let number = get_reg t Reg.RAX in
           match Hfi.on_syscall t.hfi ~number with
           | `Allow ->
             let result =
               Kernel.dispatch t.kernel ~number ~arg0:(get_reg t Reg.RDI)
                 ~arg1:(get_reg t Reg.RSI) ~arg2:(get_reg t Reg.RDX)
             in
             set_reg t Reg.RAX result
           | `Redirect h -> begin
             (* §4.4: the syscall becomes a jump to the exit handler; the
                resume point is preserved for hfi_reenter. *)
             t.resume <- Some fallthrough;
             match index_of_addr t h with
             | Some i -> next := i
             | None -> raise (Trap_exn (Msr.Hardware_fault h))
           end
           | `Fault -> raise (Trap_exn (Msr.Syscall_trap number))
         end
         | Instr.Hfi_enter spec -> begin
           match Hfi.exec_enter t.hfi spec with
           | Hfi.Continue -> ()
           | Hfi.Jump a -> begin
             match index_of_addr t a with
             | Some i -> next := i
             | None -> raise (Trap_exn (Msr.Hardware_fault a))
           end
           | Hfi.Trap r -> raise (Trap_exn r)
         end
         | Instr.Hfi_exit -> begin
           match Hfi.exec_exit t.hfi with
           | Hfi.Continue -> ()
           | Hfi.Jump a -> begin
             match index_of_addr t a with
             | Some i -> next := i
             | None -> raise (Trap_exn (Msr.Hardware_fault a))
           end
           | Hfi.Trap r -> raise (Trap_exn r)
         end
         | Instr.Hfi_reenter -> begin
           match Hfi.exec_reenter t.hfi with
           | Hfi.Continue -> begin
             match t.resume with
             | Some i ->
               next := i;
               t.resume <- None
             | None -> ()
           end
           | Hfi.Jump a -> begin
             match index_of_addr t a with
             | Some i -> next := i
             | None -> raise (Trap_exn (Msr.Hardware_fault a))
           end
           | Hfi.Trap r -> raise (Trap_exn r)
         end
         | Instr.Hfi_set_region (slot, r) -> begin
           match Hfi.exec_set_region t.hfi ~slot r with
           | Hfi.Continue -> ()
           | Hfi.Jump _ -> ()
           | Hfi.Trap reason -> raise (Trap_exn reason)
         end
         | Instr.Hfi_clear_region slot -> begin
           match Hfi.exec_clear_region t.hfi ~slot with
           | Hfi.Continue | Hfi.Jump _ -> ()
           | Hfi.Trap reason -> raise (Trap_exn reason)
         end
         | Instr.Hfi_clear_all_regions -> begin
           match Hfi.exec_clear_all t.hfi with
           | Hfi.Continue | Hfi.Jump _ -> ()
           | Hfi.Trap reason -> raise (Trap_exn reason)
         end
         | Instr.Hfi_get_region (slot, d) -> begin
           match Hfi.exec_get_region t.hfi ~slot with
           | Ok v -> set_reg t d v
           | Error reason -> raise (Trap_exn reason)
         end
         | Instr.Cpuid ->
           set_reg t Reg.RAX 0;
           set_reg t Reg.RBX 0;
           set_reg t Reg.RCX 0;
           set_reg t Reg.RDX 0
         | Instr.Rdtsc d -> set_reg t d (t.now ())
         | Instr.Rdmsr d -> set_reg t d (Msr.encode (Hfi.exit_reason t.hfi))
         | Instr.Clflush m -> t.on_flush (effective_address t m)
         | Instr.Mfence | Instr.Nop -> ()
         | Instr.Halt -> t.status_ <- Halted
       with Trap_exn reason -> begin
         signal := Some reason;
         t.last_signal <- Some reason;
         (* Fault path only — the no-trap hot path never touches this, so
            modeled cycle counts are unchanged by the fault plumbing. *)
         t.last_fault <- Some (Msr.to_fault ~pc:pc_addr ~cycle:t.instr_count reason);
         match t.signal_handler with
         | Some h -> next := h
         | None -> t.status_ <- Faulted reason
       end);
      let drains = (Hfi.stats t.hfi).Hfi.drains - drains0 in
      let serializing =
        drains > 0 || (match ins with Instr.Cpuid | Instr.Mfence -> true | _ -> false)
      in
      (* Only syscalls (and signal delivery) charge kernel time; when the
         boxed cycles field is physically unchanged, skip the float
         subtraction — it would allocate a fresh box every step. *)
      let kcycles1 = Kernel.cycles t.kernel in
      let info =
        {
          index;
          instr = ins;
          uop = Array.unsafe_get t.uops index;
          mem = !mem_acc;
          branch = !branch;
          serializing;
          kernel_cycles = (if kcycles1 = kcycles0 then 0.0 else kcycles1 -. kcycles0);
          signal = !signal;
        }
      in
      (match t.status_ with Running -> t.pc <- !next | Halted | Faulted _ -> ());
      if !Hfi_obs.Obs.trace_enabled then trace_commit t info;
      observe info;
      t.status_
    end

(* ------------------------------------------------------------------ *)
(* µop interpreter: same semantics as [step], dispatching on the
   pre-decoded form — operands are already resolved to register indices
   and immediates, so the hot path does no option matches, no
   [Reg.index] calls, and no width decoding. *)

let rsp_i = Reg.index Reg.RSP
let rax_i = Reg.index Reg.RAX
let rbx_i = Reg.index Reg.RBX
let rcx_i = Reg.index Reg.RCX
let rdx_i = Reg.index Reg.RDX
let rdi_i = Reg.index Reg.RDI
let rsi_i = Reg.index Reg.RSI

(* Decoded register slots come from [Reg.index], so unsafe access is as
   provably in-bounds as in [get_reg]/[set_reg]; -1 (absent operand) is
   always guarded before use. *)
let[@inline] rget t i = Array.unsafe_get t.regs i
let[@inline] rset t i v = Array.unsafe_set t.regs i v
let[@inline] srcv t sreg simm = if sreg >= 0 then rget t sreg else simm

let[@inline] ea_parts t ~mbase ~midx ~mscale ~mdisp =
  (if mbase >= 0 then rget t mbase else 0)
  + ((if midx >= 0 then rget t midx else 0) * mscale)
  + mdisp

let hmov_resolve_idx t ~region ~midx ~mscale ~mdisp ~bytes ~write =
  let index_value = if midx >= 0 then rget t midx else 0 in
  let ea =
    Hfi.check_hmov_ea t.hfi ~region ~index_value ~scale:mscale ~disp:mdisp ~bytes ~write
  in
  if ea >= 0 then ea
  else begin
    match Hfi.check_hmov t.hfi ~region ~index_value ~scale:mscale ~disp:mdisp ~bytes ~write with
    | Ok ea -> ea
    | Error v ->
      ignore (Hfi.record_violation t.hfi v);
      raise (Trap_exn (Msr.Bounds_violation v))
  end

(* One fused step over a µop (the caller validated the pc). Mirrors
   [step] case-for-case; the same per-step event record is built, from
   the same young allocations, so observers and GC behavior match. *)
let step_uop t (u : Uop.t) (observe : exec_info -> unit) =
  let index = u.Uop.index in
  let pc_addr = u.Uop.fetch_addr in
  let mem_acc = ref None in
  let branch = ref None in
  let signal = ref None in
  let kcycles0 = Kernel.cycles t.kernel in
  let drains0 = (Hfi.stats t.hfi).Hfi.drains in
  let fallthrough = index + 1 in
  let next = ref fallthrough in
  t.instr_count <- t.instr_count + 1;
  (try
     check_ifetch t ~addr:pc_addr;
     match u.Uop.op with
     | Uop.Omov { d; sreg; simm } -> rset t d (srcv t sreg simm)
     | Uop.Oload { bytes; d; mbase; midx; mscale; mdisp } ->
       let addr = ea_parts t ~mbase ~midx ~mscale ~mdisp in
       mem_acc := Some { addr; bytes; write = false; via_hmov = false };
       rset t d (data_access t ~addr ~bytes ~write:false ~value:0)
     | Uop.Ostore { bytes; mask; mbase; midx; mscale; mdisp; sreg; simm } ->
       let addr = ea_parts t ~mbase ~midx ~mscale ~mdisp in
       mem_acc := Some { addr; bytes; write = true; via_hmov = false };
       ignore (data_access t ~addr ~bytes ~write:true ~value:(srcv t sreg simm land mask))
     | Uop.Ohload { region; bytes; d; midx; mscale; mdisp } ->
       let addr = hmov_resolve_idx t ~region ~midx ~mscale ~mdisp ~bytes ~write:false in
       mem_acc := Some { addr; bytes; write = false; via_hmov = true };
       rset t d (hmov_paged_access t ~addr ~bytes ~write:false ~value:0)
     | Uop.Ohstore { region; bytes; mask; midx; mscale; mdisp; sreg; simm } ->
       let addr = hmov_resolve_idx t ~region ~midx ~mscale ~mdisp ~bytes ~write:true in
       mem_acc := Some { addr; bytes; write = true; via_hmov = true };
       ignore
         (hmov_paged_access t ~addr ~bytes ~write:true ~value:(srcv t sreg simm land mask))
     | Uop.Olea { d; mbase; midx; mscale; mdisp } ->
       rset t d (ea_parts t ~mbase ~midx ~mscale ~mdisp)
     | Uop.Oalu { op; d; sreg; simm } -> rset t d (alu op (rget t d) (srcv t sreg simm))
     | Uop.Ocmp { d; sreg; simm } ->
       t.cmp_b <- srcv t sreg simm;
       t.cmp_a <- rget t d
     | Uop.Ocmp_mem { d; mbase; midx; mscale; mdisp } ->
       let addr = ea_parts t ~mbase ~midx ~mscale ~mdisp in
       mem_acc := Some { addr; bytes = 8; write = false; via_hmov = false };
       let b = data_access t ~addr ~bytes:8 ~write:false ~value:0 in
       t.cmp_b <- b;
       t.cmp_a <- rget t d
     | Uop.Ojmp tgt ->
       next := tgt;
       branch := Some { kind = Uncond; taken = true; target = tgt; fallthrough }
     | Uop.Ojcc { cond; target } ->
       let taken = Instr.eval_cond cond t.cmp_a t.cmp_b in
       if taken then next := target;
       branch := Some { kind = Cond; taken; target = !next; fallthrough }
     | Uop.Ojmp_ind r -> begin
       let a = rget t r in
       match index_of_addr t a with
       | Some i ->
         next := i;
         branch := Some { kind = Indirect; taken = true; target = i; fallthrough }
       | None -> raise (Trap_exn (Msr.Hardware_fault a))
     end
     | Uop.Ocall tgt ->
       let rsp = rget t rsp_i - 8 in
       rset t rsp_i rsp;
       mem_acc := Some { addr = rsp; bytes = 8; write = true; via_hmov = false };
       ignore
         (data_access t ~addr:rsp ~bytes:8 ~write:true ~value:(addr_of_index t fallthrough));
       next := tgt;
       branch := Some { kind = Call_k; taken = true; target = tgt; fallthrough }
     | Uop.Ocall_ind r -> begin
       let a = rget t r in
       match index_of_addr t a with
       | Some i ->
         let rsp = rget t rsp_i - 8 in
         rset t rsp_i rsp;
         mem_acc := Some { addr = rsp; bytes = 8; write = true; via_hmov = false };
         ignore
           (data_access t ~addr:rsp ~bytes:8 ~write:true
              ~value:(addr_of_index t fallthrough));
         next := i;
         branch := Some { kind = Call_k; taken = true; target = i; fallthrough }
       | None -> raise (Trap_exn (Msr.Hardware_fault a))
     end
     | Uop.Oret -> begin
       let rsp = rget t rsp_i in
       mem_acc := Some { addr = rsp; bytes = 8; write = false; via_hmov = false };
       let ra = data_access t ~addr:rsp ~bytes:8 ~write:false ~value:0 in
       rset t rsp_i (rsp + 8);
       match index_of_addr t ra with
       | Some i ->
         next := i;
         branch := Some { kind = Ret_k; taken = true; target = i; fallthrough }
       | None -> raise (Trap_exn (Msr.Hardware_fault ra))
     end
     | Uop.Opush r ->
       let rsp = rget t rsp_i - 8 in
       rset t rsp_i rsp;
       mem_acc := Some { addr = rsp; bytes = 8; write = true; via_hmov = false };
       ignore (data_access t ~addr:rsp ~bytes:8 ~write:true ~value:(rget t r))
     | Uop.Opop r ->
       let rsp = rget t rsp_i in
       mem_acc := Some { addr = rsp; bytes = 8; write = false; via_hmov = false };
       rset t r (data_access t ~addr:rsp ~bytes:8 ~write:false ~value:0);
       rset t rsp_i (rsp + 8)
     | Uop.Osyscall -> begin
       let number = rget t rax_i in
       match Hfi.on_syscall t.hfi ~number with
       | `Allow ->
         let result =
           Kernel.dispatch t.kernel ~number ~arg0:(rget t rdi_i) ~arg1:(rget t rsi_i)
             ~arg2:(rget t rdx_i)
         in
         rset t rax_i result
       | `Redirect h -> begin
         t.resume <- Some fallthrough;
         match index_of_addr t h with
         | Some i -> next := i
         | None -> raise (Trap_exn (Msr.Hardware_fault h))
       end
       | `Fault -> raise (Trap_exn (Msr.Syscall_trap number))
     end
     | Uop.Ohfi_enter spec -> begin
       match Hfi.exec_enter t.hfi spec with
       | Hfi.Continue -> ()
       | Hfi.Jump a -> begin
         match index_of_addr t a with
         | Some i -> next := i
         | None -> raise (Trap_exn (Msr.Hardware_fault a))
       end
       | Hfi.Trap r -> raise (Trap_exn r)
     end
     | Uop.Ohfi_exit -> begin
       match Hfi.exec_exit t.hfi with
       | Hfi.Continue -> ()
       | Hfi.Jump a -> begin
         match index_of_addr t a with
         | Some i -> next := i
         | None -> raise (Trap_exn (Msr.Hardware_fault a))
       end
       | Hfi.Trap r -> raise (Trap_exn r)
     end
     | Uop.Ohfi_reenter -> begin
       match Hfi.exec_reenter t.hfi with
       | Hfi.Continue -> begin
         match t.resume with
         | Some i ->
           next := i;
           t.resume <- None
         | None -> ()
       end
       | Hfi.Jump a -> begin
         match index_of_addr t a with
         | Some i -> next := i
         | None -> raise (Trap_exn (Msr.Hardware_fault a))
       end
       | Hfi.Trap r -> raise (Trap_exn r)
     end
     | Uop.Ohfi_set_region { slot; region } -> begin
       match Hfi.exec_set_region t.hfi ~slot region with
       | Hfi.Continue -> ()
       | Hfi.Jump _ -> ()
       | Hfi.Trap reason -> raise (Trap_exn reason)
     end
     | Uop.Ohfi_clear_region slot -> begin
       match Hfi.exec_clear_region t.hfi ~slot with
       | Hfi.Continue | Hfi.Jump _ -> ()
       | Hfi.Trap reason -> raise (Trap_exn reason)
     end
     | Uop.Ohfi_clear_all -> begin
       match Hfi.exec_clear_all t.hfi with
       | Hfi.Continue | Hfi.Jump _ -> ()
       | Hfi.Trap reason -> raise (Trap_exn reason)
     end
     | Uop.Ohfi_get_region { slot; d } -> begin
       match Hfi.exec_get_region t.hfi ~slot with
       | Ok v -> rset t d v
       | Error reason -> raise (Trap_exn reason)
     end
     | Uop.Ocpuid ->
       rset t rax_i 0;
       rset t rbx_i 0;
       rset t rcx_i 0;
       rset t rdx_i 0
     | Uop.Ordtsc d -> rset t d (t.now ())
     | Uop.Ordmsr d -> rset t d (Msr.encode (Hfi.exit_reason t.hfi))
     | Uop.Oclflush { mbase; midx; mscale; mdisp } ->
       t.on_flush (ea_parts t ~mbase ~midx ~mscale ~mdisp)
     | Uop.Omfence | Uop.Onop -> ()
     | Uop.Ohalt -> t.status_ <- Halted
   with Trap_exn reason -> begin
     signal := Some reason;
     t.last_signal <- Some reason;
     t.last_fault <- Some (Msr.to_fault ~pc:pc_addr ~cycle:t.instr_count reason);
     match t.signal_handler with
     | Some h -> next := h
     | None -> t.status_ <- Faulted reason
   end);
  let drains = (Hfi.stats t.hfi).Hfi.drains - drains0 in
  let serializing = drains > 0 || u.Uop.base_serializing in
  (* Same boxed-cycles fast path as [step]. *)
  let kcycles1 = Kernel.cycles t.kernel in
  let info =
    {
      index;
      instr = u.Uop.instr;
      uop = u;
      mem = !mem_acc;
      branch = !branch;
      serializing;
      kernel_cycles = (if kcycles1 = kcycles0 then 0.0 else kcycles1 -. kcycles0);
      signal = !signal;
    }
  in
  (match t.status_ with Running -> t.pc <- !next | Halted | Faulted _ -> ());
  if !Hfi_obs.Obs.trace_enabled then trace_commit t info;
  observe info;
  t.status_

(* Basic-block dispatch: fetch the block extent once, then run straight-
   line instructions in a tight inner loop that only re-checks block
   membership — not the status match, pc bounds, or the AST — per
   instruction. Any divergence (branch, trap redirect, halt, fuel) falls
   back to the outer loop. *)
let run_uop t ~fuel observe =
  let uops = t.uops in
  let len = Array.length uops in
  let remaining = ref fuel in
  let rec outer () =
    if !remaining <= 0 then t.status_
    else begin
      match t.status_ with
      | (Halted | Faulted _) as s -> s
      | Running ->
        if t.pc < 0 || t.pc >= len then out_of_range_fault t
        else begin
          (* t.pc is validated above and the inner loop only advances to
             indices <= block_last < len, so unsafe_get is in bounds. *)
          let last = (Array.unsafe_get uops t.pc).Uop.block_last in
          let i = ref t.pc in
          let inner = ref true in
          while !inner do
            let u = Array.unsafe_get uops !i in
            match step_uop t u observe with
            | Running ->
              decr remaining;
              if !remaining > 0 && !i < last && t.pc = !i + 1 then incr i
              else inner := false
            | Halted | Faulted _ -> inner := false
          done;
          outer ()
        end
    end
  in
  outer ()

let run_ast t ~fuel observe =
  let remaining = ref fuel in
  let rec go () =
    if !remaining <= 0 then t.status_
    else begin
      match step t observe with
      | Running ->
        decr remaining;
        go ()
      | (Halted | Faulted _) as s -> s
    end
  in
  go ()

let run ?(fuel = max_int) t observe =
  if !decode_dispatch then run_uop t ~fuel observe else run_ast t ~fuel observe

type spec_effects = {
  spec_fetch : int -> unit;
  spec_mem : addr:int -> write:bool -> unit;
}

(* Wrong-path (transient) execution: shadow registers, suppressed stores,
   no architectural commits. HFI checks gate cache effects exactly as the
   hardware would: a failed check produces no cache-visible access. A
   transient hfi_exit in an *unserialized* sandbox disables checking for
   the remainder of the window — the attack §3.4's serialization (and the
   switch-on-exit extension) exists to prevent.

   Runs on the µop form: mispredicts spawn up to a full ROB window of
   wrong-path instructions, so this loop is as hot as the committed
   path. Module-level helpers over the shadow array (not closures) keep
   it allocation-free after the register copy. *)

let[@inline] sget (sregs : int array) i = Array.unsafe_get sregs i
let[@inline] sset (sregs : int array) i v = Array.unsafe_set sregs i v
let[@inline] ssrc sregs sreg simm = if sreg >= 0 then sget sregs sreg else simm

let[@inline] sea sregs ~mbase ~midx ~mscale ~mdisp =
  (if mbase >= 0 then sget sregs mbase else 0)
  + ((if midx >= 0 then sget sregs midx else 0) * mscale)
  + mdisp

let ifetch_ok t ~addr =
  match Hfi.check_ifetch t.hfi ~addr with Ok () -> true | Error _ -> false

let mem_ok t addr = match Addr_space.perm_at t.mem_ addr with Some _ -> true | None -> false

let spec_check_data t ~on ~addr ~bytes acc =
  if not on then true
  else begin
    match Hfi.check_data_access t.hfi ~addr ~bytes acc with Ok () -> true | Error _ -> false
  end

let speculate t ~start ~fuel effects =
  let sregs = Array.copy t.regs in
  let uops = t.uops in
  let len = Array.length uops in
  let scmp_a = ref t.cmp_a and scmp_b = ref t.cmp_b in
  (* Transient view of the HFI enable bit; region registers are read from
     the architectural state (speculation does not retire updates). *)
  let hfi_on = ref (Hfi.enabled t.hfi) in
  let spec_of = Hfi.current_spec t.hfi in
  let serialized_sandbox =
    match spec_of with
    | Some s -> s.Hfi_iface.is_serialized || s.Hfi_iface.switch_on_exit
    | None -> false
  in
  let executed = ref 0 in
  let pc = ref start in
  let stop = ref false in
  while (not !stop) && !executed < fuel && !pc >= 0 && !pc < len do
    let u = Array.unsafe_get uops !pc in
    (* Decode-stage code-region gate (§4.1): out-of-region transient
       instructions become faulting NOPs and never execute. *)
    if !hfi_on && not (ifetch_ok t ~addr:u.Uop.fetch_addr) then stop := true
    else begin
      effects.spec_fetch u.Uop.fetch_addr;
      incr executed;
      let next = ref (!pc + 1) in
      (match u.Uop.op with
      | Uop.Omov { d; sreg; simm } -> sset sregs d (ssrc sregs sreg simm)
      | Uop.Oload { bytes; d; mbase; midx; mscale; mdisp } ->
        let addr = sea sregs ~mbase ~midx ~mscale ~mdisp in
        if spec_check_data t ~on:!hfi_on ~addr ~bytes `Read && mem_ok t addr then begin
          effects.spec_mem ~addr ~write:false;
          sset sregs d (Addr_space.peek t.mem_ ~addr ~bytes)
        end
        else stop := true (* faulting transient load yields no value *)
      | Uop.Ostore { mbase; midx; mscale; mdisp; _ } ->
        let addr = sea sregs ~mbase ~midx ~mscale ~mdisp in
        (* Stores sit in the store buffer; no cache update pre-commit. *)
        if not (spec_check_data t ~on:!hfi_on ~addr ~bytes:1 `Write) then stop := true
      | Uop.Ohload { region; bytes; d; midx; mscale; mdisp } -> begin
        let index_value = if midx >= 0 then sget sregs midx else 0 in
        match
          Hfi.check_hmov t.hfi ~region ~index_value ~scale:mscale ~disp:mdisp ~bytes
            ~write:false
        with
        | Ok addr when mem_ok t addr ->
          effects.spec_mem ~addr ~write:false;
          sset sregs d (Addr_space.peek t.mem_ ~addr ~bytes)
        | Ok _ | Error _ -> stop := true
      end
      | Uop.Ohstore _ -> ()
      | Uop.Olea { d; mbase; midx; mscale; mdisp } ->
        sset sregs d (sea sregs ~mbase ~midx ~mscale ~mdisp)
      | Uop.Oalu { op; d; sreg; simm } -> begin
        match op with
        | Instr.Div when ssrc sregs sreg simm = 0 -> stop := true
        | _ -> sset sregs d (alu op (sget sregs d) (ssrc sregs sreg simm))
      end
      | Uop.Ocmp { d; sreg; simm } ->
        scmp_b := ssrc sregs sreg simm;
        scmp_a := sget sregs d
      | Uop.Ocmp_mem { d; mbase; midx; mscale; mdisp } ->
        let addr = sea sregs ~mbase ~midx ~mscale ~mdisp in
        if mem_ok t addr && spec_check_data t ~on:!hfi_on ~addr ~bytes:8 `Read then begin
          effects.spec_mem ~addr ~write:false;
          scmp_b := Addr_space.peek t.mem_ ~addr ~bytes:8;
          scmp_a := sget sregs d
        end
        else stop := true
      | Uop.Ojmp tgt -> next := tgt
      | Uop.Ojcc { cond; target } ->
        if Instr.eval_cond cond !scmp_a !scmp_b then next := target
      | Uop.Ojmp_ind r -> begin
        match index_of_addr t (sget sregs r) with Some i -> next := i | None -> stop := true
      end
      | Uop.Ocall tgt ->
        sset sregs rsp_i (sget sregs rsp_i - 8);
        next := tgt
      | Uop.Ocall_ind r -> begin
        sset sregs rsp_i (sget sregs rsp_i - 8);
        match index_of_addr t (sget sregs r) with Some i -> next := i | None -> stop := true
      end
      | Uop.Oret -> begin
        let rsp = sget sregs rsp_i in
        if mem_ok t rsp && spec_check_data t ~on:!hfi_on ~addr:rsp ~bytes:8 `Read then begin
          effects.spec_mem ~addr:rsp ~write:false;
          let ra = Addr_space.peek t.mem_ ~addr:rsp ~bytes:8 in
          sset sregs rsp_i (rsp + 8);
          match index_of_addr t ra with Some i -> next := i | None -> stop := true
        end
        else stop := true
      end
      | Uop.Opush _ -> sset sregs rsp_i (sget sregs rsp_i - 8)
      | Uop.Opop r ->
        let rsp = sget sregs rsp_i in
        if mem_ok t rsp && spec_check_data t ~on:!hfi_on ~addr:rsp ~bytes:8 `Read then begin
          effects.spec_mem ~addr:rsp ~write:false;
          sset sregs r (Addr_space.peek t.mem_ ~addr:rsp ~bytes:8);
          sset sregs rsp_i (rsp + 8)
        end
        else stop := true
      | Uop.Osyscall ->
        (* Syscalls do not execute speculatively. *)
        stop := true
      | Uop.Ohfi_enter spec ->
        if spec.Hfi_iface.is_serialized then stop := true else hfi_on := true
      | Uop.Ohfi_exit ->
        (* The §3.4 risk: an unserialized transient hfi_exit disables
           checking on the wrong path. Serialization (or switch-on-exit)
           stops speculation here instead. *)
        if serialized_sandbox then stop := true else hfi_on := false
      | Uop.Ohfi_reenter -> stop := true
      | Uop.Ohfi_set_region _ | Uop.Ohfi_clear_region _ | Uop.Ohfi_clear_all ->
        stop := true
      | Uop.Ohfi_get_region { d; _ } -> sset sregs d 0
      | Uop.Ocpuid | Uop.Omfence -> stop := true
      | Uop.Ordtsc d -> sset sregs d (t.now ())
      | Uop.Ordmsr d -> sset sregs d (Msr.encode (Hfi.exit_reason t.hfi))
      | Uop.Oclflush _ -> ()
      | Uop.Onop -> ()
      | Uop.Ohalt -> stop := true);
      if not !stop then pc := !next
    end
  done;
  !executed
