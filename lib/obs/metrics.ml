type counter = { c_key : string; c_v : int Atomic.t }
type gauge = { g_key : string; g_v : float Atomic.t }

type histogram = {
  h_key : string;
  bounds : float array;  (* increasing upper bounds *)
  counts : int Atomic.t array;  (* length bounds + 1; last = overflow *)
  h_count : int Atomic.t;
  h_sum : float Atomic.t;
}

type instrument = Counter of counter | Gauge of gauge | Histogram of histogram

(* Registration is cold and rare; a single mutex keeps it simple. The
   instruments themselves are updated lock-free via Atomic. *)
let registry : (string, instrument) Hashtbl.t = Hashtbl.create 64
let lock = Mutex.create ()

let render_key name labels =
  match labels with
  | [] -> name
  | ls ->
    let ls = List.sort compare ls in
    name ^ "{"
    ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) ls)
    ^ "}"

let register key make use =
  Mutex.lock lock;
  let r =
    match Hashtbl.find_opt registry key with
    | Some i -> use i
    | None ->
      let i = make () in
      Hashtbl.add registry key i;
      use i
  in
  Mutex.unlock lock;
  r

let counter ?(labels = []) name =
  let key = render_key name labels in
  register key
    (fun () -> Counter { c_key = key; c_v = Atomic.make 0 })
    (function Counter c -> c | _ -> invalid_arg ("Metrics.counter: " ^ key ^ " is not a counter"))

let inc c = if !Obs.metrics_enabled then Atomic.incr c.c_v
let add c n = if !Obs.metrics_enabled then ignore (Atomic.fetch_and_add c.c_v n)
let value c = Atomic.get c.c_v

let gauge ?(labels = []) name =
  let key = render_key name labels in
  register key
    (fun () -> Gauge { g_key = key; g_v = Atomic.make 0.0 })
    (function Gauge g -> g | _ -> invalid_arg ("Metrics.gauge: " ^ key ^ " is not a gauge"))

let set_gauge g v = if !Obs.metrics_enabled then Atomic.set g.g_v v
let gauge_value g = Atomic.get g.g_v

let histogram ?(labels = []) ~buckets name =
  let key = render_key name labels in
  register key
    (fun () ->
      Array.iteri
        (fun i b ->
          if i > 0 && b <= buckets.(i - 1) then
            invalid_arg ("Metrics.histogram: non-increasing buckets for " ^ key))
        buckets;
      Histogram
        {
          h_key = key;
          bounds = Array.copy buckets;
          counts = Array.init (Array.length buckets + 1) (fun _ -> Atomic.make 0);
          h_count = Atomic.make 0;
          h_sum = Atomic.make 0.0;
        })
    (function
      | Histogram h -> h
      | _ -> invalid_arg ("Metrics.histogram: " ^ key ^ " is not a histogram"))

(* CAS loop for the float sum: observe is cold relative to counter
   increments, and losing no sample matters more than nanoseconds. *)
let rec atomic_addf a v =
  let cur = Atomic.get a in
  if not (Atomic.compare_and_set a cur (cur +. v)) then atomic_addf a v

let observe h v =
  if !Obs.metrics_enabled then begin
    let n = Array.length h.bounds in
    let rec bucket i = if i >= n || v <= h.bounds.(i) then i else bucket (i + 1) in
    Atomic.incr h.counts.(bucket 0);
    Atomic.incr h.h_count;
    atomic_addf h.h_sum v
  end

let bucket_counts h = Array.map Atomic.get h.counts
let bucket_bounds h = Array.copy h.bounds
let hist_count h = Atomic.get h.h_count
let hist_sum h = Atomic.get h.h_sum

(* A bound used as a label value: trailing-zero-free, "+Inf" style kept
   simple with %g. *)
let bound_label b = Printf.sprintf "%g" b

let hist_rows h =
  let rows = ref [] in
  Array.iteri
    (fun i c ->
      let le = if i < Array.length h.bounds then bound_label h.bounds.(i) else "+Inf" in
      rows := (Printf.sprintf "%s_bucket{le=\"%s\"}" h.h_key le, float_of_int (Atomic.get c)) :: !rows)
    h.counts;
  rows := (h.h_key ^ "_count", float_of_int (Atomic.get h.h_count)) :: !rows;
  rows := (h.h_key ^ "_sum", Atomic.get h.h_sum) :: !rows;
  List.rev !rows

let snapshot () =
  Mutex.lock lock;
  let rows =
    Hashtbl.fold
      (fun _ i acc ->
        match i with
        | Counter c -> (c.c_key, float_of_int (Atomic.get c.c_v)) :: acc
        | Gauge g -> (g.g_key, Atomic.get g.g_v) :: acc
        | Histogram h -> hist_rows h @ acc)
      registry []
  in
  Mutex.unlock lock;
  List.sort (fun (a, _) (b, _) -> compare a b) rows

let delta after before =
  List.filter_map
    (fun (k, v) ->
      let v0 = match List.assoc_opt k before with Some v0 -> v0 | None -> 0.0 in
      if v -. v0 = 0.0 then None else Some (k, v -. v0))
    after

let to_text () =
  String.concat "" (List.map (fun (k, v) -> Printf.sprintf "%s %.6g\n" k v) (snapshot ()))

let to_json () =
  "{"
  ^ String.concat ","
      (List.map
         (fun (k, v) -> Printf.sprintf "\"%s\":%.6g" (Hfi_util.Json.escape k) v)
         (snapshot ()))
  ^ "}"

let reset () =
  Mutex.lock lock;
  Hashtbl.iter
    (fun _ i ->
      match i with
      | Counter c -> Atomic.set c.c_v 0
      | Gauge g -> Atomic.set g.g_v 0.0
      | Histogram h ->
        Array.iter (fun a -> Atomic.set a 0) h.counts;
        Atomic.set h.h_count 0;
        Atomic.set h.h_sum 0.0)
    registry;
  Mutex.unlock lock
