(** Synthetic stand-ins for the SPEC CPU 2006 INT benchmarks of Fig. 3.

    Each benchmark is generated from a profile capturing what drives the
    isolation-overhead comparison: memory-operation density (bounds
    checks multiply exactly these), conditional-branch density, working
    set size (d-cache/TLB behaviour), static code footprint (i-cache
    pressure — where hmov's longer encoding shows, the 445.gobmk
    effect), register-pressure demand (the reserved heap-base/bound
    registers force spills that HFI avoids), and pointer-chasing
    (dependent loads, 429.mcf/473.astar).

    Generation is deterministic per benchmark name and identical across
    isolation strategies, so measured deltas come from the strategy's
    codegen alone. *)

type profile = {
  name : string;
  mem_frac : float;
  branch_frac : float;
  wss_bytes : int;  (** power of two *)
  blocks : int;
  block_ops : int;
  live_values : int;
  pointer_chase : bool;
  streaming : bool;  (** sequential access pattern (462.libquantum) *)
  iters : int;
}

val profiles : profile list
(** The ten benchmarks of Fig. 3, in the paper's order. *)

val find : string -> profile

val pool_for : Hfi_sfi.Strategy.t -> Reg.t list
(** The value-register pool the generator allocates from under a
    strategy: the base pool plus whatever R13/R14 the strategy does not
    reserve. The re-allocation model of the §6.1 experiment treats
    exactly this list as allocatable. *)

val workload : profile -> Hfi_wasm.Instance.workload
