(* §7.2 / Appendix A: per-round communication of a Πk+2 summary
   exchange, by mechanism.

   The two ends of a monitored path-segment must compare fingerprint
   sets.  Shipping the set costs O(N); a Bloom filter costs a fixed
   size but only estimates; Appendix A's reconciliation costs
   O(losses).  Each row runs the actual mechanisms on synthetic rounds
   (N packets, L of them lost inside the segment). *)

let eval () =
  let rng = Random.State.make [| 5 |] in
  let rows =
    List.map
      (fun (n, losses) ->
        let sent = Array.init n (fun i -> (i * 379) + 11) in
        let received = Array.sub sent 0 (n - losses) in
        let recon = Setrecon.Reconcile.diff ~rng ~a:sent ~b:received () in
        let recon_words, exact =
          match recon with
          | Some r ->
              (r.Setrecon.Reconcile.evals_used,
               List.length r.Setrecon.Reconcile.a_minus_b = losses)
          | None -> (0, false)
        in
        let bloom_bits = 65536 in
        [ Exp.int n; Exp.int losses;
          Exp.int n (* one word per fingerprint, one direction *);
          Exp.int (bloom_bits / 64);
          Exp.int recon_words;
          Exp.text (if exact then "yes" else "NO") ])
      [ (1000, 0); (1000, 5); (1000, 50); (10000, 5); (10000, 50); (10000, 500) ]
  in
  { Exp.id = "comm";
    sections =
      [ Exp.section
          "Section 7.2/Appendix A: per-round summary exchange cost (64-bit words)"
          [ Exp.table
              ~header:
                [ "packets"; "losses"; "full set"; "bloom(fix)"; "reconcile";
                  "recon exact" ]
              rows;
            Exp.Note
              ( "note",
                "bloom is constant-size but only estimates the loss count (2.4.1); \
                 reconciliation recovers the exact missing fingerprints in O(losses) words, \
                 which is what makes content validation affordable at line rate" ) ] ] }
