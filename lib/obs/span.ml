(* Per-request span records for the serving simulation.

   A span covers one stage of one request's life — breaker gate,
   admission, queueing, cold start, execution attempt, backoff wait —
   with start/duration in virtual seconds and a short outcome tag. The
   serving layer emits spans through an optional context: when the
   trace subsystem is off no sink exists and every emit is a strict
   no-op, so the simulation's modeled behavior and output are
   bit-identical with spans on or off (recording never feeds back).

   Collection is per shard: each serving shard owns a private sink
   (domain-local, no synchronization), and the shard join concatenates
   sinks in shard-plan order. Since shards are deterministic and
   [Hfi_util.Pool.map] preserves input order, the merged span list —
   and both exports — are byte-identical for any HFI_JOBS.

   Exports reuse the Trace machinery's conventions: Chrome trace_event
   JSON (one process per strategy, one thread per tenant, 1 trace µs =
   1 virtual µs) and JSONL with a leading meta line. *)

type stage =
  | Request  (** root span: arrival to terminal outcome *)
  | Breaker_gate
  | Admission
  | Queue
  | Pool  (** instance-pool acquire: warm hit / cold / degraded *)
  | Cold_start
  | Execute
  | Backoff_wait
  | Chaos_inject

let stage_name = function
  | Request -> "request"
  | Breaker_gate -> "breaker"
  | Admission -> "admission"
  | Queue -> "queue"
  | Pool -> "pool"
  | Cold_start -> "cold-start"
  | Execute -> "execute"
  | Backoff_wait -> "backoff"
  | Chaos_inject -> "chaos-inject"

type t = {
  req : int;  (** deterministic request id, unique across shards *)
  tenant : int;
  stage : stage;
  start_s : float;  (** virtual seconds *)
  dur_s : float;  (** 0 for instant spans *)
  outcome : string;
}

type sink = { mutable items : t list; mutable n : int }

let create_sink () = { items = []; n = 0 }

type ctx = { sink : sink; req : int; tenant : int }

let ctx sink ~req ~tenant = { sink; req; tenant }

let emit ctx stage ~start_s ~dur_s ~outcome =
  match ctx with
  | None -> ()
  | Some c ->
    c.sink.items <-
      { req = c.req; tenant = c.tenant; stage; start_s; dur_s; outcome } :: c.sink.items;
    c.sink.n <- c.sink.n + 1

let spans sink = List.rev sink.items

let length sink = sink.n

let merge sinks = List.concat_map spans sinks

(* ---- export ---- *)

(* One Chrome process per span group (the serving exports group by
   strategy), one thread per tenant; spans with a duration are complete
   events, zero-duration ones instants. Timestamps are virtual seconds
   rendered as microseconds. *)
let chrome_event buf ~pid s =
  let instant = s.dur_s = 0.0 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"name\":\"%s\",\"cat\":\"serving\",\"ph\":\"%s\",%s\"ts\":%.3f,\"pid\":%d,\"tid\":%d,\"args\":{\"req\":%d,\"outcome\":\"%s\"}}"
       (stage_name s.stage)
       (if instant then "i" else "X")
       (if instant then "\"s\":\"t\"," else Printf.sprintf "\"dur\":%.3f," (s.dur_s *. 1e6))
       (s.start_s *. 1e6) pid s.tenant s.req (Hfi_util.Json.escape s.outcome))

let to_chrome_string groups =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let sep () = if !first then first := false else Buffer.add_char buf ',' in
  List.iteri
    (fun i (name, _) ->
      sep ();
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"args\":{\"name\":\"%s\"}}"
           (i + 1) (Hfi_util.Json.escape name)))
    groups;
  List.iteri
    (fun i (_, spans) ->
      List.iter
        (fun s ->
          sep ();
          chrome_event buf ~pid:(i + 1) s)
        spans)
    groups;
  Buffer.add_string buf
    "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"clock\":\"virtual seconds (1 trace us = 1 virtual us)\"}}";
  Buffer.contents buf

let to_jsonl_string groups =
  let buf = Buffer.create 4096 in
  let total = List.fold_left (fun acc (_, spans) -> acc + List.length spans) 0 groups in
  Buffer.add_string buf
    (Printf.sprintf "{\"meta\":\"hfi-serving-spans\",\"groups\":%d,\"spans\":%d}\n"
       (List.length groups) total);
  List.iter
    (fun (name, spans) ->
      List.iter
        (fun (s : t) ->
          Buffer.add_string buf
            (Printf.sprintf
               "{\"group\":\"%s\",\"req\":%d,\"tenant\":%d,\"stage\":\"%s\",\"start_s\":%.9f,\"dur_s\":%.9f,\"outcome\":\"%s\"}\n"
               (Hfi_util.Json.escape name) s.req s.tenant (stage_name s.stage) s.start_s s.dur_s
               (Hfi_util.Json.escape s.outcome)))
        spans)
    groups;
  Buffer.contents buf

let write_chrome ~file groups = Trace.write_string ~file (to_chrome_string groups)

let write_jsonl ~file groups = Trace.write_string ~file (to_jsonl_string groups)
