(* Host-speed correction for the end-to-end times.

   The benchmark runs on shared hosts whose speed drifts by up to 2x for
   tens of seconds at a time: on a 2-vCPU x86-64 VM, a fixed loop took
   70-149 ms over 90 s, in long fast and slow phases. Raw times of two
   runs of the same code then differ by more than any bound worth gating
   on.

   While a run measures, an interval timer samples host speed every
   [period_s]: the speed changes within a second, so the nearest samples
   correct an interval best. Each sample times a short, fixed,
   allocation-free reference loop. The loop is benchmark code and independent of the libraries under
   test, so a change to a library moves the corrected times exactly as
   it moves the raw ones. An interval's corrected time is its raw time,
   minus the sampling time spent inside it, scaled by [nominal_s] over
   the mean reference time sampled in and around it. With the sampler
   off (the traced run), [corrected] is the raw time. *)

let period_s = 0.01

(* Reference-loop time on an uncontended 2.1 GHz x86-64 core, so that
   corrected seconds read as seconds on such a host. *)
let nominal_s = 0.0015
let clock = Unix.gettimeofday
let table = Hashtbl.create 8192

(* Hashing and lookups over a warm, fixed-size table: no allocation, so
   its time does not depend on the heap the measured code left behind. *)
let reference () =
  let acc = ref 0 in
  for i = 0 to 30_000 do
    Hashtbl.replace table (i land 4095) i;
    acc := !acc + (try Hashtbl.find table ((i * 13) land 4095) with Not_found -> 0)
  done;
  !acc

type sample = { at : float; dur : float }

let samples : sample list ref = ref []
let sorted = ref [||]
let sampled_s = ref 0.0
let running = ref false

let sample () =
  let t0 = clock () in
  ignore (Sys.opaque_identity (reference ()));
  let t1 = clock () in
  samples := { at = t0; dur = t1 -. t0 } :: !samples;
  sampled_s := !sampled_s +. (t1 -. t0)

let timer v = ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = v; it_value = v })

let start () =
  ignore (reference ());
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> sample ()));
  sample ();
  running := true;
  timer period_s

let stop () =
  timer 0.0;
  Sys.set_signal Sys.sigalrm Sys.Signal_default;
  if !running then sample ();
  running := false;
  sorted := Array.of_list (List.rev !samples)

(* A point in time, with the sampling time spent so far. *)
type mark = { t : float; s : float }

let mark () = { t = clock (); s = !sampled_s }

type interval = mark * mark

let raw ((a, b) : interval) = b.t -. a.t -. (b.s -. a.s)

(* Index of the first sample taken at or after [t]. *)
let first_from t =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if !sorted.(mid).at < t then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length !sorted)

(* Mean reference time over the samples inside [a, b] plus the nearest
   one on each side; call after [stop]. *)
let mean_reference (a, b) =
  let n = Array.length !sorted in
  let lo = max 0 (first_from a.t - 1) and hi = min (n - 1) (first_from b.t) in
  let sum = ref 0.0 in
  for i = lo to hi do
    sum := !sum +. !sorted.(i).dur
  done;
  !sum /. float_of_int (hi - lo + 1)

let corrected iv = if !sorted = [||] then raw iv else raw iv *. nominal_s /. mean_reference iv

(* Overall factor over every sample: reported next to the result. *)
let mean_factor () =
  match !samples with
  | [] -> 1.0
  | l ->
    let mean = List.fold_left (fun acc x -> acc +. x.dur) 0.0 l /. float_of_int (List.length l) in
    nominal_s /. mean
