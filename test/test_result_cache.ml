(* The persistent experiment-result cache (lib/experiments/result_cache):
   env-var gating, round-trips through the on-disk entry layout including
   escape-worthy characters, key separation, and the cache under
   parallel registry workers. The store underneath (atomic writes,
   corrupt-is-a-miss) has its own contract test in test_util. *)

module RC = Hfi_experiments.Result_cache
module Report = Hfi_experiments.Report

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let with_cache_env v f =
  Unix.putenv "HFI_RESULT_CACHE" v;
  Fun.protect ~finally:(fun () -> Unix.putenv "HFI_RESULT_CACHE" "") f

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "hfi-cache-test-%d-%d" (Unix.getpid ()) !n)
    in
    d

let sample_report =
  {
    Report.id = "fig3";
    title = "SPEC 2006 \"quoted\"\ttitle";
    paper_claim = "line one\nline two \\ backslash";
    table = "col\tcol\nrow\x01ctrl";
    verdict = "ok";
    data = [ ("p99_ms", 12.5) ];
  }

let test_disabled_by_default () =
  with_cache_env "" (fun () ->
      check_bool "unset/empty disables" false (RC.enabled ());
      RC.store ~id:"x" ~quick:false ~seconds:1.0 sample_report;
      check_bool "find misses when disabled" true (RC.find ~id:"x" ~quick:false = None));
  with_cache_env "0" (fun () -> check_bool "\"0\" disables" false (RC.enabled ()))

let test_round_trip () =
  let dir = fresh_dir () in
  with_cache_env dir (fun () ->
      check_bool "dir enables" true (RC.enabled ());
      check_bool "cold miss" true (RC.find ~id:"fig3" ~quick:true = None);
      RC.store ~id:"fig3" ~quick:true ~seconds:1.25 sample_report;
      match RC.find ~id:"fig3" ~quick:true with
      | None -> Alcotest.fail "expected a hit after store"
      | Some (r, seconds) ->
        check_string "id" sample_report.Report.id r.Report.id;
        check_string "title" sample_report.Report.title r.Report.title;
        check_string "paper_claim" sample_report.Report.paper_claim r.Report.paper_claim;
        check_string "table" sample_report.Report.table r.Report.table;
        check_string "verdict" sample_report.Report.verdict r.Report.verdict;
        check_bool "data" true (r.Report.data = sample_report.Report.data);
        Alcotest.(check (float 1e-9)) "uncached seconds" 1.25 seconds;
        (* Valid JSON missing a field of the layout is a miss too. *)
        let path = Filename.concat dir (RC.key ~dir ~id:"fig3" ~quick:true ^ ".json") in
        Out_channel.with_open_bin path (fun oc ->
            Printf.fprintf oc {|{"schema_version":%d,"id":"fig3","uncached_seconds":1}|}
              RC.schema_version);
        check_bool "incomplete entry misses" true (RC.find ~id:"fig3" ~quick:true = None))

let test_quick_and_full_are_distinct () =
  let dir = fresh_dir () in
  with_cache_env dir (fun () ->
      RC.store ~id:"fig3" ~quick:true ~seconds:0.5 sample_report;
      check_bool "full missed" true (RC.find ~id:"fig3" ~quick:false = None);
      check_bool "other id missed" true (RC.find ~id:"fig2" ~quick:true = None);
      check_bool "quick hit" true (RC.find ~id:"fig3" ~quick:true <> None))

(* Keys carry the runtime configuration: flipping the optimizer switch
   must land on a different entry, so a report measured under one
   configuration is never served under another. *)
let test_key_tracks_configuration () =
  let dir = fresh_dir () in
  let base = RC.key ~dir ~id:"fig3" ~quick:true in
  let flipped =
    Hfi_opt.Driver.with_enabled
      (not !Hfi_opt.Driver.enabled)
      (fun () -> RC.key ~dir ~id:"fig3" ~quick:true)
  in
  check_bool "opt flag separates keys" true (base <> flipped)

let test_registry_uses_cache () =
  let dir = fresh_dir () in
  with_cache_env dir (fun () ->
      let runs = ref 0 in
      let entry =
        {
          Hfi_experiments.Registry.id = "synthetic-cache-test";
          description = "test";
          run =
            (fun ?quick:_ () ->
              incr runs;
              { sample_report with Report.id = "synthetic-cache-test" });
        }
      in
      let o1 = Hfi_experiments.Registry.run_entry ~quick:true entry in
      check_bool "first run is a miss" false o1.Hfi_experiments.Registry.cached;
      let o2 = Hfi_experiments.Registry.run_entry ~quick:true entry in
      check_bool "second run is a hit" true o2.Hfi_experiments.Registry.cached;
      Alcotest.(check int) "experiment ran once" 1 !runs;
      check_bool "hit carries the report" true
        (o2.Hfi_experiments.Registry.result = o1.Hfi_experiments.Registry.result);
      let o3 = Hfi_experiments.Registry.run_entry ~quick:true ~use_cache:false entry in
      check_bool "use_cache:false bypasses" false o3.Hfi_experiments.Registry.cached;
      Alcotest.(check int) "bypass re-ran" 2 !runs)

(* Two registry workers probing and filling one cold cache directory:
   the executable digest in the key is computed concurrently, which must
   neither raise nor split the entries. *)
let test_run_many_parallel_cache () =
  let dir = fresh_dir () in
  with_cache_env dir (fun () ->
      let entry id =
        {
          Hfi_experiments.Registry.id;
          description = "test";
          run = (fun ?quick:_ () -> { sample_report with Report.id });
        }
      in
      let entries = [ entry "synthetic-par-a"; entry "synthetic-par-b" ] in
      let cached () =
        List.map
          (fun o -> o.Hfi_experiments.Registry.cached)
          (Hfi_experiments.Registry.run_many ~jobs:2 ~quick:true entries)
      in
      check_bool "cold run: all misses" true (cached () = [ false; false ]);
      check_bool "warm run: all hits" true (cached () = [ true; true ]))

let suite =
  [
    Alcotest.test_case "run_many jobs=2 shares one cache" `Quick test_run_many_parallel_cache;
    Alcotest.test_case "disabled by default" `Quick test_disabled_by_default;
    Alcotest.test_case "store/find round trip" `Quick test_round_trip;
    Alcotest.test_case "keys separate id and mode" `Quick test_quick_and_full_are_distinct;
    Alcotest.test_case "keys track opt configuration" `Quick test_key_tracks_configuration;
    Alcotest.test_case "registry consults the cache" `Quick test_registry_uses_cache;
  ]
