type role =
  | Framer of { victim : int; extras : int }
  | Equivocator
  | Mute of { from : float }
  | Staller of { margin : float }

type stats = {
  framing_attempts : int;
  forgeries_rejected : int;
  forgeries_accepted : int;
  equivocations : int;
  disputes : int;
  mute_refusals : int;
}

type t = {
  keyring : Crypto_sim.Keyring.t;
  key : Crypto_sim.Siphash.key;  (* derives fabricated fingerprints *)
  roles : (int, role) Hashtbl.t;
  hardened : bool;
  mutable framing_attempts : int;
  mutable forgeries_rejected : int;
  mutable forgeries_accepted : int;
  mutable equivocations : int;
  mutable disputes : int;
  mutable mute_refusals : int;
}

let create ?(hardened = true) ~seed ~n ~roles () =
  let check_router what r =
    if r < 0 || r >= n then
      invalid_arg (Printf.sprintf "Byz.create: %s %d outside [0,%d)" what r n)
  in
  let tbl = Hashtbl.create (max 4 (List.length roles)) in
  List.iter
    (fun (r, role) ->
      check_router "router" r;
      (match role with
      | Framer { victim; extras } ->
          check_router "victim" victim;
          if victim = r then
            invalid_arg "Byz.create: a framer cannot frame itself";
          if extras < 1 then
            invalid_arg "Byz.create: extras must be positive"
      | Staller { margin } ->
          if not (Float.is_finite margin) || margin < 0.0 || margin >= 1.0 then
            invalid_arg
              (Printf.sprintf "Byz.create: stall margin %g outside [0,1)" margin)
      | Mute { from } ->
          if not (Float.is_finite from) || from < 0.0 then
            invalid_arg "Byz.create: mute start must be non-negative"
      | Equivocator -> ());
      Hashtbl.replace tbl r role)
    roles;
  { keyring = Crypto_sim.Keyring.create ~seed:(Printf.sprintf "byz-%d" seed) ~n ();
    key = Crypto_sim.Siphash.key_of_ints (Int64.of_int seed) 0xb12aL;
    roles = tbl; hardened;
    framing_attempts = 0; forgeries_rejected = 0; forgeries_accepted = 0;
    equivocations = 0; disputes = 0; mute_refusals = 0 }

let routers t =
  List.sort compare (Hashtbl.fold (fun r _ acc -> r :: acc) t.roles [])

let role t r = Hashtbl.find_opt t.roles r
let hardened t = t.hardened

let mute_active t ~router ~now =
  match role t router with Some (Mute { from }) -> now >= from | _ -> false

let stall_margin t ~router =
  match role t router with Some (Staller { margin }) -> Some margin | _ -> None

(* --- claims ----------------------------------------------------------- *)

type extra = { fp : int64; origin : int; tag : Crypto_sim.Keyring.signature }

(* Fabricated fingerprints are a pure function of (claimant, victim,
   round, index), so runs replay deterministically. *)
let fabricated_fp t ~claimant ~victim ~round ~i =
  Crypto_sim.Siphash.hash_int64s t.key
    [ Int64.of_int claimant; Int64.of_int victim; Int64.of_int round;
      Int64.of_int i ]

(* Which real fingerprint a liar prunes: a deterministic keyed position
   in [Summary.fingerprints] order, so equivocation and under-reporting
   replay identically. *)
let prune_choice t ~claimant ~peer ~round s =
  let n = Summary.cardinal s in
  if n = 0 then None
  else
    let h =
      Crypto_sim.Siphash.hash_int64s t.key
        [ 0x7072756eL; Int64.of_int claimant; Int64.of_int peer;
          Int64.of_int round ]
    in
    Some (Summary.nth s (Int64.to_int (Int64.rem (Int64.logand h Int64.max_int)
                                         (Int64.of_int n))))

let interior = function [ _; m; _ ] -> Some m | _ -> None

let summary_claim t ~claimant ~peer ~segment ~round truth =
  match role t claimant with
  | None | Some (Mute _) | Some (Staller _) -> (truth, [])
  | Some Equivocator -> (
      (* Prune one peer-keyed fingerprint: different peers receive
         different summaries for the same round, so their digests
         disagree and the cross-check catches it. *)
      match prune_choice t ~claimant ~peer ~round truth with
      | None -> (truth, [])
      | Some fp ->
          let c = Summary.copy truth in
          Summary.remove c fp;
          (c, []))
  | Some (Framer { victim; extras }) -> (
      match (interior segment, segment) with
      | Some m, [ a; _; _ ] when m = victim && claimant = a ->
          (* Inflating the traffic sent *into* the victim: fabricated
             entries the victim never saw, so the comparison shows them
             as "dropped by the interior".  The claimant cannot sign as
             anyone else, so the origin tags are forged under its own
             key and fail verification against the claimed origin. *)
          t.framing_attempts <- t.framing_attempts + 1;
          let mk i =
            let fp = fabricated_fp t ~claimant ~victim ~round ~i in
            let origin = if victim = 0 then 1 else 0 in
            { fp; origin; tag = Crypto_sim.Keyring.forge_attempt }
          in
          (truth, List.init extras mk)
      | Some m, [ _; _; b ] when m = victim && claimant = b ->
          (* Under-reporting the traffic received *out of* the victim:
             real fingerprints deterministically pruned from the claim,
             so the victim appears to have swallowed them.  No forgery
             to reject here — the corroboration quorum has to catch it
             from the interior router's own forwarded-claim instead. *)
          t.framing_attempts <- t.framing_attempts + 1;
          let c = Summary.copy truth in
          let rec prune k =
            if k > 0 then
              match prune_choice t ~claimant ~peer:(peer + k) ~round c with
              | None -> ()
              | Some fp ->
                  Summary.remove c fp;
                  prune (k - 1)
          in
          prune extras;
          (c, [])
      | _ -> (truth, []))

let sign_extra t ~origin ~fp =
  { fp; origin; tag = Crypto_sim.Keyring.sign_words t.keyring ~signer:origin [ fp ] }

let screen t ?probe ?(time = 0.0) ~claimant ~summary ~extras () =
  let rejected = ref 0 in
  List.iter
    (fun e ->
      let genuine =
        Crypto_sim.Keyring.verify_words t.keyring ~signer:e.origin [ e.fp ] e.tag
      in
      if genuine || not t.hardened then begin
        if genuine then ()
        else t.forgeries_accepted <- t.forgeries_accepted + 1;
        Summary.observe summary ~fp:e.fp ~size:0 ~time
      end
      else begin
        incr rejected;
        t.forgeries_rejected <- t.forgeries_rejected + 1;
        match probe with
        | None -> ()
        | Some probe ->
            Netsim.Probe.record_fault probe ~time ~kind:"forgery_rejected"
              ~routers:[ claimant; e.origin ]
              ~detail:(Printf.sprintf "fp=%Lx bad origin MAC" e.fp)
              ()
      end)
    extras;
  !rejected

let claim t ?probe ~time ~claimant ~peer ~segment ~round truth =
  match summary_claim t ~claimant ~peer ~segment ~round truth with
  | cl, [] -> cl
  | cl, extras ->
      let c = if cl == truth then Summary.copy cl else cl in
      ignore (screen t ?probe ~time ~claimant ~summary:c ~extras ());
      c

(* A sum of per-fingerprint terms, so it needs no order. *)
let digest s =
  Summary.fold s ~init:(Int64.of_int (Summary.packets s)) ~f:(fun acc fp ->
      Int64.logxor acc (Int64.mul fp 0x9e3779b97f4a7c15L))

let note_dispute t = t.disputes <- t.disputes + 1
let note_equivocation t = t.equivocations <- t.equivocations + 1
let note_mute_refusal t = t.mute_refusals <- t.mute_refusals + 1

let stats t =
  { framing_attempts = t.framing_attempts;
    forgeries_rejected = t.forgeries_rejected;
    forgeries_accepted = t.forgeries_accepted;
    equivocations = t.equivocations;
    disputes = t.disputes;
    mute_refusals = t.mute_refusals }
