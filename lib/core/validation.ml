type thresholds = {
  max_loss_fraction : float;
  max_fabricated : int;
  max_reordered : int;
  max_delay : float;
}

let strict =
  { max_loss_fraction = 0.0; max_fabricated = 0; max_reordered = 0; max_delay = infinity }

let lenient ?(max_loss_fraction = 0.02) () = { strict with max_loss_fraction }

type verdict = {
  ok : bool;
  conserved : bool;
  missing : int64 list;
  fabricated : int64 list;
  reordered : int;
  max_delay_seen : float;
}

let lcs_length a b =
  let n = Array.length a and m = Array.length b in
  if n = 0 || m = 0 then 0
  else begin
    (* Rolling single-row DP. *)
    let prev = Array.make (m + 1) 0 in
    let cur = Array.make (m + 1) 0 in
    for i = 1 to n do
      for j = 1 to m do
        if Int64.equal a.(i - 1) b.(j - 1) then cur.(j) <- prev.(j - 1) + 1
        else cur.(j) <- max prev.(j) cur.(j - 1)
      done;
      Array.blit cur 0 prev 0 (m + 1)
    done;
    prev.(m)
  end

let tv ?(thresholds = strict) ?prev ~sent ~received () =
  if Summary.policy sent <> Summary.policy received then
    invalid_arg "Validation.tv: summaries use different policies";
  let sent_n = Summary.packets sent in
  let loss_budget = thresholds.max_loss_fraction *. float_of_int sent_n in
  let within ~missing_n ~fabricated_n =
    float_of_int missing_n <= loss_budget && fabricated_n <= thresholds.max_fabricated
  in
  match Summary.policy sent with
  | Summary.Flow ->
      (* Conservation of flow: counters only.  Missing/fabricated are
         counts without identities; we expose them as empty lists and
         decide on the counters. *)
      let conserved =
        within
          ~missing_n:(max 0 (sent_n - Summary.packets received))
          ~fabricated_n:(max 0 (Summary.packets received - sent_n))
      in
      { ok = conserved;
        conserved;
        missing = [];
        fabricated = [];
        reordered = 0;
        max_delay_seen = 0.0 }
  | Summary.Content | Summary.Order | Summary.Timeliness ->
      let missing = Summary.diff sent received in
      (* A packet the previous round's sent summary announced was in
         flight across the round boundary, not fabricated. *)
      let fabricated = Summary.diff ?exclude:prev received sent in
      let reordered =
        if Summary.policy sent = Summary.Content then 0
        else begin
          (* Compare orderings over the common packets only: losses are
             accounted separately (§2.2.1). *)
          let keep other seq = Array.of_list (List.filter (Summary.mem other) (Array.to_list seq)) in
          let s = keep received (Summary.sequence sent) in
          let f = keep sent (Summary.sequence received) in
          Array.length s - lcs_length s f
        end
      in
      let max_delay_seen =
        if Summary.policy sent <> Summary.Timeliness then 0.0
        else
          List.fold_left
            (fun acc fp ->
              match (Summary.time_of sent fp, Summary.time_of received fp) with
              | Some t0, Some t1 -> Float.max acc (t1 -. t0)
              | _ -> acc)
            0.0 (Summary.fingerprints sent)
      in
      let conserved =
        within ~missing_n:(List.length missing) ~fabricated_n:(List.length fabricated)
      in
      { ok =
          conserved
          && reordered <= thresholds.max_reordered
          && max_delay_seen <= thresholds.max_delay;
        conserved;
        missing;
        fabricated;
        reordered;
        max_delay_seen }
