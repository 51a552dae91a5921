(* The forward worklist fixpoint over a µop CFG, shared by the static
   verifier (lib/verify/checks.ml) and the optimizer's interval analysis
   (Analysis). Clients supply the lattice ([join], [widen]), the entry
   state and a block [transfer] that maps an in-state to its outgoing
   [(target block, contribution)] edges; the engine owns the schedule:

   - ascending phase: FIFO worklist from the entry block; each change to
     a block's in-state counts a visit, and from the
     [widen_threshold + 1]-th visit on the new state is widened against
     the old one instead of joined. Budget: [200 * nb + 1000] transfers.
   - narrowing phase (only if the ascending phase drained): every
     in-state is replaced by the pure join of its incoming contributions
     — dropping what widening overshot, e.g. a loop head widened to
     [0,+inf] whose back edge already carries the refined bound — and
     every reachable block is re-simulated; states now only shrink.
     Budget: [32 * nb] transfers.

   A block's in-state is rebuilt by folding its incoming contributions
   in increasing source-block order (the entry block starts from
   [init]). The order is part of the contract: the verifier's join
   infers relational facts, which makes it associative-commutative only
   up to which fact is born first, so a fixed order keeps reports and
   proofs byte-identical run to run and across --jobs shardings.

   At quiescence every recorded contribution equals the transfer of its
   source's in-state and every in-state covers the join of its incoming
   contributions — the inclusion property proof artifacts carry. A
   narrowing phase cut short by its budget is still above the fixpoint
   (sound), but only a fully drained one is [stable]. *)

type 'a result = {
  in_states : 'a option array;  (* per block; None = unreachable *)
  converged : bool;  (* the ascending phase drained within its budget *)
  stable : bool;  (* ... and so did the narrowing phase *)
  iterations : int;  (* block transfers run, both phases *)
}

let widen_threshold = 3

module Int_map = Map.Make (Int)

let solve (cfg : Cfg.t) ~init ~join ~widen ~transfer =
  let nb = Array.length cfg.Cfg.blocks in
  let in_states = Array.make nb None in
  let visits = Array.make nb 0 in
  (* incoming.(t): source block -> its latest contribution to [t] *)
  let incoming = Array.make nb Int_map.empty in
  let queue = Queue.create () in
  let on_queue = Array.make nb false in
  let iterations = ref 0 in
  let narrowing = ref false in
  let enqueue b =
    if not on_queue.(b) then begin
      on_queue.(b) <- true;
      Queue.push b queue
    end
  in
  let joined_in b =
    Int_map.fold
      (fun _ s acc -> Some (match acc with None -> s | Some a -> join a s))
      incoming.(b)
      (if b = 0 then Some init else None)
  in
  let recompute b =
    match joined_in b with
    | None -> ()
    | Some j -> (
      match in_states.(b) with
      | None ->
        in_states.(b) <- Some j;
        enqueue b
      | Some cur ->
        if !narrowing then begin
          if j <> cur then begin
            in_states.(b) <- Some j;
            enqueue b
          end
        end
        else begin
          let u = join cur j in
          if u <> cur then begin
            visits.(b) <- visits.(b) + 1;
            in_states.(b) <- Some (if visits.(b) > widen_threshold then widen cur u else u);
            enqueue b
          end
        end)
  in
  let process b =
    on_queue.(b) <- false;
    incr iterations;
    match in_states.(b) with
    | None -> ()
    | Some s ->
      List.iter
        (fun (t, contrib) ->
          match Int_map.find_opt b incoming.(t) with
          | Some old when old = contrib -> ()
          | _ ->
            incoming.(t) <- Int_map.add b contrib incoming.(t);
            recompute t)
        (transfer b s)
  in
  let drain budget =
    let left = ref budget in
    while (not (Queue.is_empty queue)) && !left > 0 do
      decr left;
      process (Queue.pop queue)
    done;
    Queue.is_empty queue
  in
  if nb > 0 then begin
    in_states.(0) <- Some init;
    enqueue 0
  end;
  let converged = drain ((200 * nb) + 1000) in
  let stable =
    converged
    && begin
      narrowing := true;
      (* the contributions have not changed, so [recompute] alone would
         never fire: install the re-joined states directly *)
      for b = 0 to nb - 1 do
        match (in_states.(b), joined_in b) with
        | Some cur, Some j when j <> cur -> in_states.(b) <- Some j
        | _ -> ()
      done;
      for b = 0 to nb - 1 do
        if in_states.(b) <> None then enqueue b
      done;
      drain (32 * nb)
    end
  in
  { in_states; converged; stable; iterations = !iterations }
