(* §6.4.3: Protocol χ vs the static threshold.

   Rounds from the benign run and from the queue-conditioned attacks are
   pooled; every static loss-rate threshold is swept over them.  The
   table shows that no threshold achieves zero false positives and zero
   false negatives simultaneously, while χ separates the same rounds
   exactly. *)

let attack_rounds run =
  List.filter_map
    (fun (r : Core.Chi.report) ->
      if r.Core.Chi.learning then None
      else begin
        let attacked = r.Core.Chi.end_time > run.Scenario.attack_start in
        Some (r.Core.Chi.arrivals, List.length r.Core.Chi.losses, attacked, r.Core.Chi.alarm)
      end)
    run.Scenario.reports

let benign_rounds run =
  List.filter_map
    (fun (r : Core.Chi.report) ->
      if r.Core.Chi.learning then None
      else Some (r.Core.Chi.arrivals, List.length r.Core.Chi.losses, false, r.Core.Chi.alarm))
    run.Scenario.reports

let eval () =
  let benign = Scenario.run_droptail ~attack:(fun _ -> None) () in
  let attacked =
    Scenario.run_droptail
      ~attack:(fun victims ->
        Some (Core.Adversary.on_flows victims (Core.Adversary.drop_when_queue_above 0.90)))
      ()
  in
  let rounds = benign_rounds benign @ attack_rounds attacked in
  let threshold_rows = List.map (fun (s, l, a, _) -> (s, l, a)) rounds in
  let sweep =
    List.map
      (fun rate ->
        let t = Core.Threshold.create ~loss_rate:rate in
        let tp, fp, fn, tn = Core.Threshold.confusion t ~rounds:threshold_rows in
        [ Exp.float ~decimals:3 rate; Exp.int tp; Exp.int fp; Exp.int fn; Exp.int tn ])
      [ 0.0; 0.002; 0.005; 0.01; 0.02; 0.05; 0.1 ]
  in
  (* χ's own confusion on the same rounds (an attacked round counts as
     detected if χ alarmed it). *)
  let tp, fp, fn, tn =
    List.fold_left
      (fun (tp, fp, fn, tn) (_, _, attacked, alarm) ->
        match (alarm, attacked) with
        | true, true -> (tp + 1, fp, fn, tn)
        | true, false -> (tp, fp + 1, fn, tn)
        | false, true -> (tp, fp, fn + 1, tn)
        | false, false -> (tp, fp, fn, tn + 1))
      (0, 0, 0, 0) rounds
  in
  let chi_row = [ Exp.text "chi"; Exp.int tp; Exp.int fp; Exp.int fn; Exp.int tn ] in
  { Exp.id = "threshold";
    sections =
      [ Exp.section "Section 6.4.3: Protocol chi vs static threshold"
          [ Exp.table
              ~header:[ "loss thr"; "TP"; "FP"; "FN"; "TN" ]
              (sweep @ [ chi_row ]);
            Exp.Note
              ( "note",
                "attacked rounds without malicious drops (attack armed but queue below its trigger) \
                 count as attack rounds; the threshold sweep shows the FP/FN tradeoff, chi separates \
                 congestion from malice per loss" ) ] ] }
