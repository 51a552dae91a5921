module Strategy = Hfi_sfi.Strategy
module Instance = Hfi_wasm.Instance
module Checks = Hfi_verify.Checks
module Vreport = Hfi_verify.Report
module Vcache = Hfi_verify.Verdict_cache

type decision =
  | Admitted
  | Rejected of { verdict : string; detail : string }

type entry = { decision : decision; fingerprint : string }

type t = {
  compiled : (string, string) Hashtbl.t;
      (* reference fingerprint/strategy/heap size/optimizer switch ->
         compiled fingerprint *)
  cache : (string, entry) Hashtbl.t;  (* fingerprint/strategy -> verdict *)
  mutable hits : int;
  mutable misses : int;
  mutable persisted : int;
}

let create () =
  { compiled = Hashtbl.create 64; cache = Hashtbl.create 64; hits = 0; misses = 0; persisted = 0 }

(* One counter per cache event kind, labeled so a metrics snapshot
   shows the in-memory hit / fresh-verify / persistent-load split at a
   glance. *)
let cache_event =
  let make event =
    Hfi_obs.Metrics.counter ~labels:[ ("event", event) ] "hfi_verify_cache_events_total"
  in
  let hit = make "hit" and miss = make "miss" and persisted = make "persisted" in
  fun kind ->
    Hfi_obs.Metrics.inc (match kind with `Hit -> hit | `Miss -> miss | `Persisted -> persisted)

let decision_of_report (r : Vreport.t) =
  match r.Vreport.verdict with
  | Vreport.Safe -> Admitted
  | Vreport.Unsafe (v :: _) ->
    Rejected { verdict = "unsafe"; detail = Vreport.violation_to_string v }
  | Vreport.Unsafe [] -> Rejected { verdict = "unsafe"; detail = "" }
  | Vreport.Unknown reasons ->
    (* The gate is load => verify => admit: an undischarged obligation is
       not proof of safety, so Unknown is rejected, never executed. *)
    let detail =
      match reasons with r0 :: _ -> r0.Vreport.what | [] -> "undischarged obligation"
    in
    Rejected { verdict = "unknown"; detail }

(* A module image as a tenant uploads it: the reference lowering
   (codegen only, [~optimize:false]) under the strategy it will be
   served with, plus the strategy/heap-size part of its memo key. *)
type image = {
  name : string;
  strategy : Strategy.t;
  heap_size : int;
  reference : Program.t;
  key : string;  (* reference fingerprint/strategy/heap size *)
}

let image ~strategy (w : Instance.workload) =
  let reference = Instance.build_program ~strategy ~optimize:false w in
  let heap_size = Instance.round_to_wasm_page w.Instance.heap_bytes in
  {
    name = w.Instance.name;
    strategy;
    heap_size;
    reference;
    key =
      Printf.sprintf "%s/%s/%d" (Program.fingerprint reference) (Strategy.to_string strategy)
        heap_size;
  }

(* The compiled fingerprint of [img], with the compiled program itself
   deferred: it is needed only to verify, and a memo hit whose verdict
   is already decided never forces it. *)
let compiled_fingerprint t img =
  let optimize = !Hfi_opt.Driver.enabled in
  let compile () =
    if optimize then
      Hfi_opt.Driver.optimize
        (Instance.opt_conv ~strategy:img.strategy ~heap_size:img.heap_size)
        img.reference
    else img.reference
  in
  let key = if optimize then img.key ^ "/true" else img.key ^ "/false" in
  match Hashtbl.find_opt t.compiled key with
  | Some fingerprint -> (fingerprint, lazy (compile ()))
  | None ->
    let program = compile () in
    let fingerprint = Program.fingerprint program in
    Hashtbl.replace t.compiled key fingerprint;
    (fingerprint, Lazy.from_val program)

(* Verify the compiled form of a module image, memoized
   content-addressed at two levels. The first maps the reference
   lowering to the fingerprint of the compiled program: its key is the
   reference fingerprint plus the strategy, the Wasm-page heap size
   (both fold into the optimizer's [conv]) and the [HFI_WASM_OPT]
   switch, so the [Hfi_opt.Driver] pipeline runs only on a first-seen
   reference program. The second maps the compiled fingerprint (a
   digest of the exact instruction sequence) plus the strategy to the
   verdict, so two tenants sharing a module image share one
   verification — and so do two reference programs the optimizer maps
   to one image — and any change to the module or the compiler changes
   the key.

   Compilation is not cheap — under bounds-checks [Sfi_opt.elide]
   alone costs 0.07–0.40 ms per FaaS kernel — so a hit must not
   optimize. A serving campaign lowers each tenant's module once, at
   its first admission ([image]), and a hit on that image is two table
   lookups: 0.16–0.23 us on a 2-core host, against 6.8–9.0 us for a
   one-off [check], which lowers and digests the module on every call
   (medians of 200-call batches over the FaaS kernels, hfi and
   bounds-checks). A miss adds the optimizer and, for a first-seen
   compiled program, the abstract-interpretation fixpoint (~2 ms).

   Behind the in-process verdict table sits the opt-in persistent
   {!Hfi_verify.Verdict_cache} ([HFI_VERIFY_CACHE]), keyed on the
   compiled fingerprint: a first-seen fingerprint is looked up there
   before the fixpoint runs, and a fresh verdict is stored back, so
   verification survives process restarts — the report round-trips
   through JSON, and the decision is recomputed from the report, never
   stored. *)
let check_image ?ctx ?(at = 0.0) t img =
  let strategy = img.strategy in
  let fingerprint, program = compiled_fingerprint t img in
  let key = fingerprint ^ "/" ^ Strategy.to_string strategy in
  let code_base = Hfi_wasm.Layout.code_base in
  let decision, source =
    match Hashtbl.find_opt t.cache key with
    | Some e ->
      t.hits <- t.hits + 1;
      cache_event `Hit;
      (e.decision, `Memory)
    | None -> (
      match Vcache.find ~fingerprint ~strategy ~code_base with
      | Some report ->
        t.persisted <- t.persisted + 1;
        cache_event `Persisted;
        let decision = decision_of_report report in
        Hashtbl.replace t.cache key { decision; fingerprint };
        (decision, `Persisted)
      | None ->
        t.misses <- t.misses + 1;
        cache_event `Miss;
        let report =
          Checks.verify ~name:img.name { Checks.strategy; code_base }
            (Lazy.force program)
        in
        Vcache.store ~fingerprint ~strategy ~code_base report;
        let decision = decision_of_report report in
        Hashtbl.replace t.cache key { decision; fingerprint };
        (decision, `Fresh))
  in
  let outcome =
    let qualifier =
      match source with `Memory -> "-cached" | `Persisted -> "-persisted" | `Fresh -> ""
    in
    match decision with
    | Admitted -> "admitted" ^ qualifier
    | Rejected { verdict; _ } -> Printf.sprintf "rejected%s-%s" qualifier verdict
  in
  Hfi_obs.Span.emit ctx Hfi_obs.Span.Admission ~start_s:at ~dur_s:0.0 ~outcome;
  decision

(* A one-off admission: lower [w] and check the resulting image. *)
let check ?ctx ?at t ~strategy w = check_image ?ctx ?at t (image ~strategy w)

let hits t = t.hits
let misses t = t.misses
let persisted t = t.persisted

(* A deliberately unverifiable module: from inside the sandbox it
   repoints the heap region register at memory it does not own, stores
   through it, and also stores through a raw absolute address that
   escapes every sandbox window. The first refutes the HFI invariant
   (region registers are written only by the trusted runtime, outside
   the sandbox); the second refutes SFI discipline under the software
   strategies — so admission rejects the module under *every* strategy,
   before a single instruction runs. Serving campaigns use it as the
   poison-tenant image. *)
let escape_region : Hfi_isa.Hfi_iface.region =
  Hfi_isa.Hfi_iface.Explicit_data
    {
      base_address = 0x3000_0000 - 16;
      bound = 4096 + 16;
      permission_read = true;
      permission_write = true;
      is_large_region = false;
    }

let poison_workload =
  Instance.workload ~name:"poison-region-escape" (fun c ->
      let module Codegen = Hfi_wasm.Codegen in
      Codegen.emit c
        (Instr.Hfi_set_region (Hfi_wasm.Layout.heap_region_slot, escape_region));
      Codegen.emit c
        (Instr.Hstore
           (Hfi_wasm.Layout.heap_hmov_region, Instr.W8, Instr.mem ~disp:16 (), Instr.Imm 0xBAD));
      Codegen.emit c
        (Instr.Store (Instr.W8, Instr.mem ~disp:0x3000_0000 (), Instr.Imm 0x5A));
      Codegen.emit c (Instr.Mov (Reg.RAX, Instr.Imm 0)))
