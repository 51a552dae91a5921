open Hfi_util

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_prng_determinism () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    check_int "same stream" (Prng.next a) (Prng.next b)
  done

let test_prng_different_seeds () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Prng.next a = Prng.next b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 5)

let test_prng_bounds () =
  let t = Prng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Prng.int t 10 in
    check_bool "in range" true (v >= 0 && v < 10)
  done;
  for _ = 1 to 1000 do
    let v = Prng.int_in t ~min:5 ~max:8 in
    check_bool "in [5,8]" true (v >= 5 && v <= 8)
  done

let test_prng_float_range () =
  let t = Prng.create ~seed:9 in
  for _ = 1 to 1000 do
    let v = Prng.float t 2.5 in
    check_bool "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_prng_copy_independent () =
  let a = Prng.create ~seed:3 in
  ignore (Prng.next a);
  let b = Prng.copy a in
  let va = Prng.next a in
  let vb = Prng.next b in
  check_int "copy continues identically" va vb

let test_prng_gaussian_moments () =
  let t = Prng.create ~seed:11 in
  let n = 20000 in
  let samples = List.init n (fun _ -> Prng.gaussian t ~mean:5.0 ~stddev:2.0) in
  let m = Stats.mean samples in
  let sd = Stats.stddev samples in
  check_bool "mean near 5" true (Float.abs (m -. 5.0) < 0.1);
  check_bool "stddev near 2" true (Float.abs (sd -. 2.0) < 0.1)

let test_prng_exponential_mean () =
  let t = Prng.create ~seed:13 in
  let samples = List.init 20000 (fun _ -> Prng.exponential t ~mean:3.0) in
  check_bool "mean near 3" true (Float.abs (Stats.mean samples -. 3.0) < 0.15)

let test_prng_shuffle_permutation () =
  let t = Prng.create ~seed:17 in
  let a = Array.init 50 Fun.id in
  Prng.shuffle t a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_stats_mean_geomean () =
  check_float "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check_float "geomean" 2.0 (Stats.geomean [ 1.0; 2.0; 4.0 ] |> fun x -> x);
  check_float "empty mean" 0.0 (Stats.mean [])

let test_stats_geomean_rejects_nonpositive () =
  Alcotest.check_raises "non-positive" (Invalid_argument "Stats.geomean: non-positive sample")
    (fun () -> ignore (Stats.geomean [ 1.0; 0.0 ]))

let test_stats_percentile () =
  let xs = List.init 101 float_of_int in
  check_float "p50" 50.0 (Stats.percentile 50.0 xs);
  check_float "p0" 0.0 (Stats.percentile 0.0 xs);
  check_float "p100" 100.0 (Stats.percentile 100.0 xs);
  check_float "p99" 99.0 (Stats.percentile 99.0 xs)

let test_stats_percentile_interpolates () =
  check_float "interpolated" 1.5 (Stats.percentile 50.0 [ 1.0; 2.0 ])

let test_stats_median_stddev () =
  check_float "median" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  check_float "stddev of constant" 0.0 (Stats.stddev [ 4.0; 4.0; 4.0 ])

let test_latency_acc () =
  let l = Stats.Latency.create () in
  List.iter (Stats.Latency.add l) (List.init 100 (fun i -> float_of_int (i + 1)));
  check_int "count" 100 (Stats.Latency.count l);
  check_float "mean" 50.5 (Stats.Latency.mean l);
  check_bool "tail is high" true (Stats.Latency.tail l > 98.0);
  check_float "max" 100.0 (Stats.Latency.max l)

let test_histogram () =
  let h = Stats.Histogram.create ~lo:0.0 ~hi:10.0 ~buckets:10 in
  List.iter (Stats.Histogram.add h) [ 0.5; 1.5; 1.6; 9.9; 100.0; -5.0 ];
  let c = Stats.Histogram.counts h in
  check_int "bucket 0 (incl clamp)" 2 c.(0);
  check_int "bucket 1" 2 c.(1);
  check_int "last bucket (incl clamp)" 2 c.(9);
  check_int "total" 6 (Stats.Histogram.total h);
  check_bool "render non-empty" true (String.length (Stats.Histogram.render h ~width:20) > 0)

let test_units_bytes () =
  Alcotest.(check string) "bytes" "512 B" (Units.pp_bytes 512);
  Alcotest.(check string) "kib" "4.0 KiB" (Units.pp_bytes 4096);
  Alcotest.(check string) "gib" "8.0 GiB" (Units.pp_bytes (8 * Units.gib))

let test_units_cycles_time () =
  check_float "1 GHz-ish" 1.0 (Units.cycles_to_seconds ~hz:1e9 1e9);
  check_float "round trip" 330.0 (Units.seconds_to_cycles (Units.cycles_to_seconds 330.0));
  Alcotest.(check string) "ratio +" "+10.0%" (Units.pp_ratio 1.1);
  Alcotest.(check string) "ratio -" "-10.0%" (Units.pp_ratio 0.9)

let test_units_pp_cycles_commas () =
  Alcotest.(check string) "commas" "1,234,567" (Units.pp_cycles 1234567.0)

let test_table_render () =
  let s = Table.render ~header:[ "name"; "value" ] [ [ "a"; "1" ]; [ "bc"; "23" ] ] in
  check_bool "has header" true (String.length s > 0);
  let lines = String.split_on_char '\n' s in
  check_int "4 lines + trailing" 5 (List.length lines)

(* Fixed-bucket metric histograms (Hfi_obs): boundary values go in the
   first bucket whose upper bound is >= the sample; everything above the
   last bound lands in the overflow slot. *)
let test_obs_histogram_buckets () =
  let module Obs = Hfi_obs.Obs in
  let module Metrics = Hfi_obs.Metrics in
  let was = !Obs.metrics_enabled in
  Obs.set_metrics true;
  Fun.protect
    ~finally:(fun () -> Obs.set_metrics was)
    (fun () ->
      let h =
        Metrics.histogram "test_util_obs_hist" ~buckets:[| 1.0; 2.0; 4.0 |]
          ~labels:[ ("case", "buckets") ]
      in
      List.iter (Metrics.observe h) [ 0.5; 1.0; 1.5; 3.0; 100.0 ];
      check_int "count" 5 (Metrics.hist_count h);
      check_float "sum" 106.0 (Metrics.hist_sum h);
      let counts = Metrics.bucket_counts h in
      check_int "bucket slots" 4 (Array.length counts);
      check_int "le=1 (0.5 and the 1.0 boundary)" 2 counts.(0);
      check_int "le=2" 1 counts.(1);
      check_int "le=4" 1 counts.(2);
      check_int "overflow" 1 counts.(3);
      (* snapshot expands the histogram into _bucket/_count/_sum rows,
         suffixed after the rendered name{labels} key *)
      let snap = Metrics.snapshot () in
      let base = "test_util_obs_hist{case=\"buckets\"}" in
      let row suffix = List.exists (fun (k, _) -> k = base ^ suffix) snap in
      check_bool "bucket row" true (row "_bucket{le=\"1\"}");
      check_bool "overflow row" true (row "_bucket{le=\"+Inf\"}");
      check_bool "count row" true (row "_count");
      check_bool "sum row" true (row "_sum"))

let test_obs_histogram_reregister_keeps_bounds () =
  let module Obs = Hfi_obs.Obs in
  let module Metrics = Hfi_obs.Metrics in
  let was = !Obs.metrics_enabled in
  Obs.set_metrics true;
  Fun.protect
    ~finally:(fun () -> Obs.set_metrics was)
    (fun () ->
      let h1 = Metrics.histogram "test_util_obs_hist2" ~buckets:[| 10.0 |] in
      let h2 = Metrics.histogram "test_util_obs_hist2" ~buckets:[| 99.0; 100.0 |] in
      Metrics.observe h1 5.0;
      check_int "same instrument" 1 (Metrics.hist_count h2);
      check_int "original bounds kept" 1 (Array.length (Metrics.bucket_bounds h2)))

(* ---- Store: the content-addressed JSON store both caches share ---- *)

module Store = Hfi_util.Store
module Json = Hfi_util.Json

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let test_store_contract () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hfi-store-test-%d" (Unix.getpid ()))
  in
  (* Concurrent workers on a cold directory see one digest, no exception. *)
  let digests = Hfi_util.Pool.map ~jobs:4 (fun _ -> Store.exe_digest ~dir) (List.init 8 Fun.id) in
  let digest = List.hd digests in
  check_int "one digest across workers" 1 (List.length (List.sort_uniq compare digests));
  check_int "hex digest" 32 (String.length digest);
  (* Round trip, through the shared escaper, of every byte value. *)
  let k = Store.key [ "entry"; "v1" ] in
  check_bool "parts enter the key" true (k <> Store.key [ "entry"; "v2" ]);
  check_bool "cold miss" true (Store.find ~dir k = None);
  let bytes = String.init 256 Char.chr in
  Store.store ~dir k (Printf.sprintf {|{"s":"%s","n":[1.5]}|} (Json.escape bytes));
  (match Store.find ~dir k with
  | Some j ->
    check_bool "string round-trips" true (Json.str_member "s" j = Some bytes);
    check_bool "array round-trips" true (Json.member "n" j = Some (Json.Arr [ Json.Num 1.5 ]))
  | None -> Alcotest.fail "stored entry not found");
  (* A truncated or corrupt entry is a miss, not an error. *)
  let path = Filename.concat dir (k ^ ".json") in
  let full = read_file path in
  write_file path (String.sub full 0 (String.length full / 2));
  check_bool "truncated entry misses" true (Store.find ~dir k = None);
  write_file path "{ corrupt";
  check_bool "corrupt entry misses" true (Store.find ~dir k = None);
  (* A directory that cannot be created (its parent is a file) swallows
     the store. *)
  let file = Filename.concat dir "plain-file" in
  write_file file "";
  let bad = Filename.concat file "sub" in
  Store.store ~dir:bad k "{}";
  check_bool "unwritable store swallowed" true (Store.find ~dir:bad k = None);
  (* A stamp matching the executable's size+mtime is trusted; a stale
     one is re-hashed and rewritten. *)
  let stamp = Filename.concat dir "exe.stamp" in
  let st = Unix.stat Sys.executable_name in
  let want = Printf.sprintf "%d %.6f" st.Unix.st_size st.Unix.st_mtime in
  let fake = String.make 32 'f' in
  write_file stamp (Printf.sprintf "%s\n%s\n" want fake);
  Alcotest.(check string) "matching stamp trusted" fake (Store.exe_digest ~dir);
  write_file stamp (Printf.sprintf "0 0.000000\n%s\n" fake);
  Alcotest.(check string) "stale stamp re-hashed" digest (Store.exe_digest ~dir);
  Alcotest.(check string) "stamp rewritten" (Printf.sprintf "%s\n%s\n" want digest)
    (read_file stamp);
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let suite =
  [
    Alcotest.test_case "prng determinism" `Quick test_prng_determinism;
    Alcotest.test_case "prng seed sensitivity" `Quick test_prng_different_seeds;
    Alcotest.test_case "prng int bounds" `Quick test_prng_bounds;
    Alcotest.test_case "prng float range" `Quick test_prng_float_range;
    Alcotest.test_case "prng copy" `Quick test_prng_copy_independent;
    Alcotest.test_case "prng gaussian moments" `Quick test_prng_gaussian_moments;
    Alcotest.test_case "prng exponential mean" `Quick test_prng_exponential_mean;
    Alcotest.test_case "prng shuffle" `Quick test_prng_shuffle_permutation;
    Alcotest.test_case "stats mean/geomean" `Quick test_stats_mean_geomean;
    Alcotest.test_case "stats geomean guard" `Quick test_stats_geomean_rejects_nonpositive;
    Alcotest.test_case "stats percentile" `Quick test_stats_percentile;
    Alcotest.test_case "stats percentile interpolation" `Quick test_stats_percentile_interpolates;
    Alcotest.test_case "stats median/stddev" `Quick test_stats_median_stddev;
    Alcotest.test_case "latency accumulator" `Quick test_latency_acc;
    Alcotest.test_case "histogram" `Quick test_histogram;
    Alcotest.test_case "obs metric histogram buckets" `Quick test_obs_histogram_buckets;
    Alcotest.test_case "obs metric histogram re-registration" `Quick
      test_obs_histogram_reregister_keeps_bounds;
    Alcotest.test_case "units bytes" `Quick test_units_bytes;
    Alcotest.test_case "units cycles/time" `Quick test_units_cycles_time;
    Alcotest.test_case "units comma grouping" `Quick test_units_pp_cycles_commas;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "store contract" `Quick test_store_contract;
  ]
