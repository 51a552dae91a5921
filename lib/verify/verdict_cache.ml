(* Persistent, content-addressed verdict cache over [Hfi_util.Store].

   A verification report is a pure function of the program bytes, the
   strategy and the analysis itself, so it is keyed by a digest of
   exactly those: the program fingerprint, the strategy name, the code
   base, and {!Checks.verifier_version}. Any analysis change bumps the
   version and old entries are simply never looked up again. The
   directory contract, atomic writes and corrupt-is-a-miss reads are
   the store's. *)

module J = Hfi_util.Json
module Store = Hfi_util.Store

let entry_version = 1
let default_dir = Filename.concat "_build" ".hfi-verify-cache"
let dir_of_env () = Store.dir_of_env "HFI_VERIFY_CACHE" ~default:default_dir
let enabled () = dir_of_env () <> None

let key ~fingerprint ~strategy ~code_base =
  Store.key
    [
      Printf.sprintf "hfi-verify-v%d" entry_version;
      Printf.sprintf "verifier-%d" Checks.verifier_version;
      fingerprint;
      Hfi_sfi.Strategy.to_string strategy;
      string_of_int code_base;
    ]

(* Second index, one level up: a corpus kernel's compiled form is a
   pure function of the kernel generator, the compiler and the
   [HFI_WASM_OPT] lowering mode — the first two are baked into the
   executable, so its digest stands in for both. A hit here elides
   compilation as well as the fixpoint; any rebuild changes the key. *)
let workload_key ~dir ~kernel ~strategy ~code_base =
  Store.key
    [
      Printf.sprintf "hfi-verify-wk-v%d" entry_version;
      Printf.sprintf "verifier-%d" Checks.verifier_version;
      Store.exe_digest ~dir;
      (if !Driver.enabled then "opt-on" else "opt-off");
      kernel;
      Hfi_sfi.Strategy.to_string strategy;
      string_of_int code_base;
    ]

let find_key ~dir k : Report.t option =
  match Store.find ~dir k with
  | None -> None
  | Some j -> (
    match (J.num_member "cache_version" j, J.num_member "verifier_version" j) with
    | Some cv, Some vv
      when int_of_float cv = entry_version && int_of_float vv = Checks.verifier_version ->
      Option.bind (J.member "report" j) Report.of_json
    | _ -> None)

let store_key ~dir k (r : Report.t) =
  Store.store ~dir k
    (Printf.sprintf {|{"cache_version":%d,"verifier_version":%d,"report":%s}|} entry_version
       Checks.verifier_version (Report.to_json r)
    ^ "\n")

let find_in ~dir ~fingerprint ~strategy ~code_base =
  find_key ~dir (key ~fingerprint ~strategy ~code_base)

let store_in ~dir ~fingerprint ~strategy ~code_base r =
  store_key ~dir (key ~fingerprint ~strategy ~code_base) r

let find_workload_in ~dir ~kernel ~strategy ~code_base =
  find_key ~dir (workload_key ~dir ~kernel ~strategy ~code_base)

let store_workload_in ~dir ~kernel ~strategy ~code_base r =
  store_key ~dir (workload_key ~dir ~kernel ~strategy ~code_base) r

let find ~fingerprint ~strategy ~code_base =
  match dir_of_env () with
  | None -> None
  | Some dir -> find_in ~dir ~fingerprint ~strategy ~code_base

let store ~fingerprint ~strategy ~code_base r =
  match dir_of_env () with
  | None -> ()
  | Some dir -> store_in ~dir ~fingerprint ~strategy ~code_base r
