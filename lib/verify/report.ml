type property = Sfi_discipline | Hfi_invariant | Cfi

let property_name = function
  | Sfi_discipline -> "sfi-discipline"
  | Hfi_invariant -> "hfi-invariant"
  | Cfi -> "cfi"

type violation = {
  property : property;
  index : int;
  addr : int;
  instr : string;
  detail : string;
}

type reason = { r_index : int option; what : string }

type verdict = Safe | Unsafe of violation list | Unknown of reason list

type t = {
  target : string;
  strategy : string;
  verdict : verdict;
  blocks : int;
  instrs : int;
  checked_mem : int;
  checked_branches : int;
  iterations : int;
}

let verdict_name = function Safe -> "safe" | Unsafe _ -> "unsafe" | Unknown _ -> "unknown"

(* Deterministic orderings for verdict details: by program counter
   first, then kind, then text — so JSON output (and anything keyed on
   it, like verdict-cache entries and CI diffs) is byte-stable whatever
   order the analysis discovered the findings in. *)
let property_rank = function Sfi_discipline -> 0 | Hfi_invariant -> 1 | Cfi -> 2

let compare_violation (a : violation) (b : violation) =
  let c = compare a.index b.index in
  if c <> 0 then c
  else
    let c = compare (property_rank a.property) (property_rank b.property) in
    if c <> 0 then c
    else
      let c = compare a.detail b.detail in
      if c <> 0 then c else compare (a.addr, a.instr) (b.addr, b.instr)

let compare_reason (a : reason) (b : reason) =
  (* program-wide reasons (no pc) sort first, then by pc, then text *)
  let c = compare a.r_index b.r_index in
  if c <> 0 then c else compare a.what b.what

let pp_violation ppf v =
  Format.fprintf ppf "[%s] #%d @@ 0x%x `%s`: %s" (property_name v.property) v.index v.addr
    v.instr v.detail

let violation_to_string v = Format.asprintf "%a" pp_violation v

let pp_reason ppf (r : reason) =
  match r.r_index with
  | Some i -> Format.fprintf ppf "#%d: %s" i r.what
  | None -> Format.fprintf ppf "%s" r.what

let to_string t =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Format.fprintf ppf "%s/%s: %s (%d blocks, %d instrs, %d mem + %d branch obligations, %d passes)"
    t.target t.strategy (verdict_name t.verdict) t.blocks t.instrs t.checked_mem
    t.checked_branches t.iterations;
  (match t.verdict with
  | Safe -> ()
  | Unsafe vs -> List.iter (fun v -> Format.fprintf ppf "@\n  %a" pp_violation v) vs
  | Unknown rs -> List.iter (fun r -> Format.fprintf ppf "@\n  ? %a" pp_reason r) rs);
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let escape = Hfi_util.Json.escape

let violation_json v =
  Printf.sprintf
    {|{"property":"%s","index":%d,"addr":%d,"instr":"%s","detail":"%s"}|}
    (property_name v.property) v.index v.addr (escape v.instr) (escape v.detail)

let reason_json (r : reason) =
  match r.r_index with
  | Some i -> Printf.sprintf {|{"index":%d,"what":"%s"}|} i (escape r.what)
  | None -> Printf.sprintf {|{"what":"%s"}|} (escape r.what)

let to_json t =
  let details =
    match t.verdict with
    | Safe -> ""
    | Unsafe vs ->
      Printf.sprintf {|,"violations":[%s]|} (String.concat "," (List.map violation_json vs))
    | Unknown rs ->
      Printf.sprintf {|,"reasons":[%s]|} (String.concat "," (List.map reason_json rs))
  in
  Printf.sprintf
    {|{"target":"%s","strategy":"%s","verdict":"%s","blocks":%d,"instrs":%d,"checked_mem":%d,"checked_branches":%d,"iterations":%d%s}|}
    (escape t.target) (escape t.strategy) (verdict_name t.verdict) t.blocks t.instrs
    t.checked_mem t.checked_branches t.iterations details

(* ---- reader (persistent verdict-cache entries) ---- *)

module J = Hfi_util.Json

exception Malformed_json

let property_of_name = function
  | "sfi-discipline" -> Sfi_discipline
  | "hfi-invariant" -> Hfi_invariant
  | "cfi" -> Cfi
  | _ -> raise Malformed_json

let jstr name j =
  match Option.bind (J.member name j) J.to_str with Some s -> s | None -> raise Malformed_json

let jint name j =
  match Option.bind (J.member name j) J.to_num with
  | Some v when Float.is_integer v && Float.abs v <= 2. ** 53. -> int_of_float v
  | _ -> raise Malformed_json

let violation_of_json j =
  {
    property = property_of_name (jstr "property" j);
    index = jint "index" j;
    addr = jint "addr" j;
    instr = jstr "instr" j;
    detail = jstr "detail" j;
  }

let reason_of_json j =
  let r_index = match J.member "index" j with Some _ -> Some (jint "index" j) | None -> None in
  { r_index; what = jstr "what" j }

let of_json j =
  try
    let jlist name f =
      match Option.bind (J.member name j) J.to_list with
      | Some items -> List.map f items
      | None -> raise Malformed_json
    in
    let verdict =
      match jstr "verdict" j with
      | "safe" -> Safe
      | "unsafe" -> Unsafe (jlist "violations" violation_of_json)
      | "unknown" -> Unknown (jlist "reasons" reason_of_json)
      | _ -> raise Malformed_json
    in
    Some
      {
        target = jstr "target" j;
        strategy = jstr "strategy" j;
        verdict;
        blocks = jint "blocks" j;
        instrs = jint "instrs" j;
        checked_mem = jint "checked_mem" j;
        checked_branches = jint "checked_branches" j;
        iterations = jint "iterations" j;
      }
  with Malformed_json -> None
