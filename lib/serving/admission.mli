(** The verified-load admission gate (load ⇒ verify ⇒ admit).

    Every module entering the serving layer is compiled and fed to the
    {!Hfi_verify} static verifier before any instance of it may
    execute; only a [Safe] verdict admits it. [Unsafe] *and* [Unknown]
    are rejected — an obligation the verifier could not discharge is
    not proof of safety, so the LFI-style gate refuses to run it.

    A module enters as an {!image}: its reference lowering (codegen
    without the optimizer) under the strategy it will be served with.
    A serving campaign builds one image per tenant, at the tenant's
    first admission, and every later request only looks it up. The
    gate maps the image's reference fingerprint (plus strategy, heap
    size and the [HFI_WASM_OPT] switch) to a compiled fingerprint in a
    per-checker memo; the {!Hfi_opt.Driver} pipeline runs only on a
    memo miss, so a hit on a prebuilt image is two table lookups
    (about 0.2 µs, against 7–9 µs when every request re-lowers and
    re-digests the module). Verdicts are cached content-addressed: keyed by the
    compiled program's {!Program.fingerprint} plus the strategy, so
    identical module images verify once per process however many
    tenants share them, and any compiler or module change invalidates
    by construction. With [HFI_VERIFY_CACHE] set, first-seen
    fingerprints also consult (and feed) the persistent
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

type image
(** A module as a tenant uploads it: the reference lowering of a
    workload under one strategy, with its content digest. *)

val image : strategy:Hfi_sfi.Strategy.t -> Hfi_wasm.Instance.workload -> image
(** Lower the workload under [strategy] without the optimizer
    ({!Hfi_wasm.Instance.build_program} [~optimize:false]) and digest
    it. Never instantiates or executes the module. *)

val check_image : ?ctx:Hfi_obs.Span.ctx -> ?at:float -> t -> image -> decision
(** Map the image's reference fingerprint to the compiled one
    (optimizing only on a first-seen reference program under the
    current optimizer switch), look up the compiled fingerprint
    (in-memory first, then the persistent cache if enabled), verify on
    a miss and store the fresh verdict back. A hit means the compiled
    program was already decided, whichever reference program it came
    from. Never instantiates or executes the module. With [ctx],
    records the verdict and its source as an instant admission span at
    virtual time [at] (default 0): outcomes are
    [admitted]/[rejected-*] for a fresh verification, with a [-cached]
    or [-persisted] qualifier for the two cache tiers. *)

val check :
  ?ctx:Hfi_obs.Span.ctx ->
  ?at:float ->
  t ->
  strategy:Hfi_sfi.Strategy.t ->
  Hfi_wasm.Instance.workload ->
  decision
(** [check t ~strategy w] is [check_image t (image ~strategy w)]: a
    one-off admission that lowers and digests [w] on every call. *)

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
