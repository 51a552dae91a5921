(** Architectural machine state and single-step interpreter.

    This module executes instructions with full architectural fidelity —
    register file, byte-accurate memory through {!Hfi_memory.Addr_space},
    HFI checks through {!Hfi_core.Hfi}, syscalls through
    {!Hfi_memory.Kernel} — and *no* notion of time. The two timing engines
    ({!Fast_engine} and {!Cycle_engine}) drive it and convert the
    per-instruction {!exec_info} events into cycles.

    Branch targets are instruction indices; the code is modeled as loaded
    at [code_base], and stack/handler addresses are byte addresses mapped
    back to indices via {!Hfi_isa.Program.index_of_byte}. *)

type t

val alu : Instr.alu_op -> int -> int -> int
(** The concrete ALU the interpreter commits: native-int wraparound,
    shift counts masked to 6 bits, signed division. Exposed so the
    optimizer's constant folder evaluates with bit-identical semantics;
    division by zero traps at runtime, so callers must guard it. *)

type access = { addr : int; bytes : int; write : bool; via_hmov : bool }

type branch_kind = Cond | Uncond | Indirect | Call_k | Ret_k

type branch_info = {
  kind : branch_kind;
  taken : bool;
  target : int;  (** instruction index actually transferred to *)
  fallthrough : int;  (** index of the next sequential instruction *)
}

type exec_info = {
  index : int;  (** index of the instruction that just executed *)
  instr : Instr.t;
  uop : Uop.t;  (** pre-decoded form of [instr] (cost metadata) *)
  mem : access option;
  branch : branch_info option;
  serializing : bool;  (** pipeline drain required (cpuid/mfence/HFI) *)
  kernel_cycles : float;  (** kernel time consumed by this instruction *)
  signal : Msr.t option;  (** a trap was delivered to the signal handler *)
}

val decode_dispatch : bool ref
(** When true (default; [HFI_DECODE_CACHE=0] flips it at startup), [run]
    dispatches on the pre-decoded µop form; when false it runs the
    reference match-on-AST interpreter. Both tiers produce bit-identical
    architectural and modeled results — tests flip this in-process to
    prove it. *)

val dispatch_tier : unit -> string
(** The tier [run] currently selects: ["uop"] (default) or ["ast"]. *)

type status = Running | Halted | Faulted of Msr.t

val create :
  ?signal_handler:int ->
  prog:Program.t ->
  code_base:int ->
  mem:Addr_space.t ->
  kernel:Kernel.t ->
  hfi:Hfi.t ->
  entry:int ->
  unit ->
  t
(** [signal_handler] is the instruction index the OS redirects to when a
    trap (HFI violation, page fault) occurs — the runtime's SIGSEGV
    handler. Without one, traps end the run as [Faulted]. *)

val set_now : t -> (unit -> int) -> unit
(** Clock source for [rdtsc], supplied by the timing engine. *)

val set_on_flush : t -> (int -> unit) -> unit
(** Callback for [clflush], so the timing engine can evict its d-cache. *)

val regs : t -> int array
val get_reg : t -> Reg.t -> int
val set_reg : t -> Reg.t -> int -> unit
val pc : t -> int
val set_pc : t -> int -> unit
val status : t -> status
val hfi : t -> Hfi.t
val kernel : t -> Kernel.t
val mem : t -> Addr_space.t
val program : t -> Program.t
val code_base : t -> int
val instr_count : t -> int
val last_signal : t -> Msr.t option

val last_fault : t -> Hfi_util.Fault.t option
(** Structured record of the most recent trap (modeled or hardware),
    with the faulting PC and committed-instruction count at the time it
    fired. [None] until the first trap. Recording happens only on the
    trap path, so fault-free runs have identical cost. *)

val addr_of_index : t -> int -> int
(** Byte address of an instruction index. *)

val index_of_addr : t -> int -> int option

val effective_address : t -> Instr.mem -> int
(** Evaluate a memory operand against the current register file. *)

val step : t -> (exec_info -> unit) -> status
(** Execute one instruction via the reference AST interpreter; the
    callback observes what happened before the status is returned. No-op
    when already halted or faulted. *)

val run : ?fuel:int -> t -> (exec_info -> unit) -> status
(** Step until [Halted], [Faulted], or [fuel] instructions. Dispatches
    per {!decode_dispatch}; both tiers observe identical events. *)

(** {1 Wrong-path speculation support}

    Used by the cycle engine to model transient execution after a branch
    misprediction. Architectural state is untouched: registers are
    shadow-copied, stores are suppressed, loads read committed memory.
    Cache side effects are reported through the callbacks — loads whose
    HFI check fails report nothing, which is exactly HFI's Spectre
    guarantee (§4.1: no cache update before the bounds check passes). *)

type spec_effects = {
  spec_fetch : int -> unit;  (** byte address of a speculatively fetched instruction *)
  spec_mem : addr:int -> write:bool -> unit;  (** cache-visible data access *)
}

val speculate : t -> start:int -> fuel:int -> spec_effects -> int
(** Execute up to [fuel] instructions of wrong path starting at index
    [start]; stops early at serializing instructions (per the current HFI
    serialization flags), faults, or [Halt]. Returns the number of
    instructions transiently executed. *)
