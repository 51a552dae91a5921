(* In-memory span log for the traced run.

   One span per call the benchmark makes into a layer's public function:
   name, start, end, parent span and the op the call belongs to, plus the
   minor-heap words allocated while it was open. Spans are kept in memory
   and written out once, when the run ends. With recording off, [record]
   is a plain call: the untraced run pays one branch per layer call. *)

type span = {
  id : int;
  name : string;
  op : int;
  parent : int;  (** id of the enclosing span; -1 at top level *)
  probe : bool;  (** an extra call made only to measure (not in wall_s) *)
  start : float;
  mutable stop : float;
  mutable minor_words : float;
}

let enabled = ref false
let spans : span list ref = ref []
let next_id = ref 0
let open_spans : span list ref = ref []
let current_op = ref 0

let reset () =
  spans := [];
  next_id := 0;
  open_spans := [];
  current_op := 0

let set_op op = current_op := op

let record ?(probe = false) name f =
  if not !enabled then f ()
  else begin
    let parent = match !open_spans with s :: _ -> s.id | [] -> -1 in
    let w0 = Gc.minor_words () in
    let s =
      {
        id = !next_id;
        name;
        op = !current_op;
        parent;
        probe;
        start = Unix.gettimeofday ();
        stop = nan;
        minor_words = 0.0;
      }
    in
    incr next_id;
    spans := s :: !spans;
    open_spans := s :: !open_spans;
    let close () =
      s.stop <- Unix.gettimeofday ();
      s.minor_words <- Gc.minor_words () -. w0;
      open_spans := List.tl !open_spans
    in
    match f () with
    | r ->
      close ();
      r
    | exception e ->
      close ();
      raise e
  end

let all () = Array.of_list (List.rev !spans)

(* Self time is a span's duration minus the time its direct children
   cover (children of one span never overlap). *)
let self_times arr =
  let children = Array.make (Array.length arr) 0.0 in
  Array.iter
    (fun s -> if s.parent >= 0 then children.(s.parent) <- children.(s.parent) +. (s.stop -. s.start))
    arr;
  Array.map (fun s -> s.stop -. s.start -. children.(s.id)) arr

type total = { mutable self_s : float; mutable words : float }

(* Per-name totals of self time and minor words. *)
let totals () =
  let arr = all () in
  let self = self_times arr in
  let tbl = Hashtbl.create 32 in
  Array.iter
    (fun s ->
      let t =
        match Hashtbl.find_opt tbl s.name with
        | Some t -> t
        | None ->
          let t = { self_s = 0.0; words = 0.0 } in
          Hashtbl.replace tbl s.name t;
          t
      in
      t.self_s <- t.self_s +. self.(s.id);
      t.words <- t.words +. s.minor_words)
    arr;
  tbl

let self_s tbl name = match Hashtbl.find_opt tbl name with Some t -> t.self_s | None -> 0.0
let words tbl name = match Hashtbl.find_opt tbl name with Some t -> t.words | None -> 0.0

(* Self time of every non-probe span: the part of the traced pass the
   layers account for. *)
let layer_self_s () =
  let arr = all () in
  let self = self_times arr in
  Array.fold_left (fun acc s -> if s.probe then acc else acc +. self.(s.id)) 0.0 arr

let write_jsonl path ~origin =
  let oc = open_out path in
  Array.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":\"%s\",\"op\":%d,\"parent\":%d,\"probe\":%b,\"start_us\":%.1f,\"end_us\":%.1f,\"minor_words\":%.0f}\n"
        s.id (String.escaped s.name) s.op s.parent s.probe
        ((s.start -. origin) *. 1e6)
        ((s.stop -. origin) *. 1e6)
        s.minor_words)
    (all ());
  close_out oc
