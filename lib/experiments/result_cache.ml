(** Persistent, content-addressed cache of experiment reports.

    Re-running the bench harness mostly re-derives results that cannot
    have changed: an experiment's report is a pure function of the
    simulator code and the (id, quick) configuration. The cache keys
    each run by a digest of exactly those inputs — the experiment id,
    the workload mode, the optimizer switch, and a digest of the
    running executable itself — so any rebuild that changes behaviour
    changes the key and the stale entry is simply never looked up again
    (invalidation by construction; nothing is ever deleted).

    Opt-in via [HFI_RESULT_CACHE]: unset, empty, or ["0"] disables it;
    ["1"] stores under [_build/.hfi-cache/]; any other value is used as
    the cache directory. Entries live in an {!Hfi_util.Store} (atomic
    writes, corrupt-is-a-miss reads, safe under [HFI_JOBS] workers);
    each carries the report plus the original run's wall-clock seconds
    so cache hits can report the speedup honestly. *)

module J = Hfi_util.Json
module Store = Hfi_util.Store

let default_dir = Filename.concat "_build" ".hfi-cache"
let dir () = Store.dir_of_env "HFI_RESULT_CACHE" ~default:default_dir
let enabled () = dir () <> None

(* Entry-layout version. Bumping it both changes every key (old entries
   are never looked up again) and is checked against the
   [schema_version] field on read, so an entry written under a different
   layout is a miss even if it somehow shares a key. v2 added
   [schema_version] itself; v3 folded the runtime configuration knobs
   into the key — reports are a function of those too; v4 added the
   report's machine-readable key figures; v5 nests them as a [data]
   object (v4 flattened them as ["data:<key>"] fields). *)
let schema_version = 5

let key ~dir ~id ~quick =
  Store.key
    [
      Printf.sprintf "hfi-result-v%d" schema_version;
      id;
      (if quick then "quick" else "full");
      (if !Hfi_opt.Driver.enabled then "opt-on" else "opt-off");
      Store.exe_digest ~dir;
    ]

(* A hit returns the report plus the wall-clock seconds the original
   (uncached) run took. *)
let find ~id ~quick : (Report.t * float) option =
  let ( let* ) = Option.bind in
  let* dir = dir () in
  let* j = Store.find ~dir (key ~dir ~id ~quick) in
  let* version = J.num_member "schema_version" j in
  let str k = J.str_member k j in
  let* id = str "id" in
  let* title = str "title" in
  let* paper_claim = str "paper_claim" in
  let* table = str "table" in
  let* verdict = str "verdict" in
  let* data = Option.bind (J.member "data" j) (function J.Obj kvs -> Some kvs | _ -> None) in
  let* uncached = J.num_member "uncached_seconds" j in
  (* The key figures come back in stored (= original) order. *)
  let figures = List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (J.to_num v)) data in
  if int_of_float version <> schema_version || List.length figures <> List.length data then None
  else Some ({ Report.id; title; paper_claim; table; verdict; data = figures }, uncached)

let store ~id ~quick ~seconds (r : Report.t) =
  match dir () with
  | None -> ()
  | Some dir ->
    let str s = "\"" ^ J.escape s ^ "\"" in
    let num = Printf.sprintf "%.6g" in
    let obj fields =
      "{" ^ String.concat "," (List.map (fun (k, v) -> str k ^ ":" ^ v) fields) ^ "}"
    in
    Store.store ~dir (key ~dir ~id ~quick)
      (obj
         [
           ("schema_version", string_of_int schema_version);
           ("id", str r.Report.id);
           ("title", str r.Report.title);
           ("paper_claim", str r.Report.paper_claim);
           ("table", str r.Report.table);
           ("verdict", str r.Report.verdict);
           ("data", obj (List.map (fun (k, v) -> (k, num v)) r.Report.data));
           ("uncached_seconds", num seconds);
         ]
      ^ "\n")
