(** The verified-load admission gate (load ⇒ verify ⇒ admit).

    Every module entering the serving layer is compiled and fed to the
    {!Hfi_verify} static verifier before any instance of it may
    execute; only a [Safe] verdict admits it. [Unsafe] *and* [Unknown]
    are rejected — an obligation the verifier could not discharge is
    not proof of safety, so the LFI-style gate refuses to run it.

    The gate first lowers the module without the optimizer and looks
    the reference fingerprint (plus strategy, heap size and the
    [HFI_WASM_OPT] switch) up in a per-checker memo of compiled
    fingerprints; the {!Hfi_opt.Driver} pipeline runs only on a memo
    miss, so a hit costs codegen plus one digest. Verdicts are cached
    content-addressed: keyed by the compiled program's
    {!Program.fingerprint} plus the strategy, so identical module
    images verify once per process however many tenants share them,
    and any compiler or module change invalidates by construction. With [HFI_VERIFY_CACHE] set, first-seen fingerprints
    also consult (and feed) the persistent
    {!Hfi_verify.Verdict_cache}, so verification survives process
    restarts; every lookup is counted both here ({!hits} / {!misses} /
    {!persisted}) and as the labeled
    [hfi_verify_cache_events_total{event=...}] observability counter. *)

type t
(** The compiled-fingerprint memo and the verdict cache. One per
    serving shard: neither table is locked. *)

val create : unit -> t

type decision =
  | Admitted
  | Rejected of { verdict : string; detail : string }
      (** [verdict] is ["unsafe"] or ["unknown"]; [detail] names the
          first violation or undischarged obligation *)

val check :
  ?ctx:Hfi_obs.Span.ctx ->
  ?at:float ->
  t ->
  strategy:Hfi_sfi.Strategy.t ->
  Hfi_wasm.Instance.workload ->
  decision
(** Lower, map the reference fingerprint to the compiled one
    (optimizing only on a first-seen reference program), look up the
    compiled fingerprint (in-memory first, then the persistent cache if
    enabled), verify on a miss and store the fresh verdict back. A hit
    means the compiled program was already decided, whichever reference
    program it came from. Never instantiates or executes the module. With
    [ctx], records the verdict and its source as an instant admission
    span at virtual time [at] (default 0): outcomes are
    [admitted]/[rejected-*] for a fresh verification, with a [-cached]
    or [-persisted] qualifier for the two cache tiers. *)

val hits : t -> int
val misses : t -> int

val persisted : t -> int
(** Verdicts loaded from the persistent cache (a subset of neither
    {!hits} nor {!misses}: a persistent load is its own event). *)

val poison_workload : Hfi_wasm.Instance.workload
(** A region-escape module (writes a region register from inside the
    sandbox, then stores through it): verifiably [Unsafe], used as the
    poison-tenant image in chaos campaigns and as the admission-gate
    negative control. *)
