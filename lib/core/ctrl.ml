type link_faults = {
  loss : float;
  duplicate : float;
  reorder : float;
  reorder_delay : float;
}

let clean = { loss = 0.0; duplicate = 0.0; reorder = 0.0; reorder_delay = 0.0 }

type retry = { max_attempts : int; base_timeout : float; backoff : float }

let default_retry = { max_attempts = 4; base_timeout = 0.25; backoff = 2.0 }

let mute_rounds = 3

let segment_tag ~round ~salt seg =
  List.fold_left (fun acc r -> (acc * 8191) + r + 1) round seg lxor salt

type outcome =
  | Delivered of { attempts : int; duplicated : bool; extra_delay : float }
  | Timed_out of { attempts : int; waited : float }

type stats = {
  sends : int;
  attempts : int;
  losses : int;
  duplicates : int;
  reorders : int;
  timeouts : int;
  mutes : int;
  stalls : int;
}

type peer_fault = { mute_from : float option; stall_margin : float option }

let no_peer_fault = { mute_from = None; stall_margin = None }

type t = {
  key : Crypto_sim.Siphash.key;
  default : link_faults;
  per_link : (int * int, link_faults) Hashtbl.t;
  peer_faults : (int, peer_fault) Hashtbl.t;
  mutable sends : int;
  mutable attempts : int;
  mutable losses : int;
  mutable duplicates : int;
  mutable reorders : int;
  mutable timeouts : int;
  mutable mutes : int;
  mutable stalls : int;
  mutable observer : (attempts:int -> ok:bool -> unit) option;
}

let check_faults f =
  let prob name p =
    if not (Float.is_finite p) || p < 0.0 || p > 1.0 then
      invalid_arg (Printf.sprintf "Ctrl: %s probability %g outside [0,1]" name p)
  in
  prob "loss" f.loss;
  prob "duplicate" f.duplicate;
  prob "reorder" f.reorder;
  if not (Float.is_finite f.reorder_delay) || f.reorder_delay < 0.0 then
    invalid_arg "Ctrl: negative reorder delay"

let create ?(seed = 1) ?(default = clean) ?(links = []) () =
  check_faults default;
  let per_link = Hashtbl.create (max 4 (List.length links)) in
  List.iter
    (fun (lk, f) ->
      check_faults f;
      Hashtbl.replace per_link lk f)
    links;
  { key = Crypto_sim.Siphash.key_of_ints (Int64.of_int seed) 0xc791L;
    default; per_link; peer_faults = Hashtbl.create 4;
    sends = 0; attempts = 0; losses = 0; duplicates = 0; reorders = 0;
    timeouts = 0; mutes = 0; stalls = 0; observer = None }

let reliable () = create ()

let faults_for t ~src ~dst =
  match Hashtbl.find_opt t.per_link (src, dst) with
  | Some f -> f
  | None -> t.default

let set_peer_fault t ~router pf =
  (match pf.stall_margin with
  | Some m when (not (Float.is_finite m)) || m < 0.0 || m >= 1.0 ->
      invalid_arg (Printf.sprintf "Ctrl: stall margin %g outside [0,1)" m)
  | _ -> ());
  (match pf.mute_from with
  | Some f when (not (Float.is_finite f)) || f < 0.0 ->
      invalid_arg "Ctrl: mute start must be non-negative"
  | _ -> ());
  if pf = no_peer_fault then Hashtbl.remove t.peer_faults router
  else Hashtbl.replace t.peer_faults router pf

let peer_fault t ~router =
  Option.value (Hashtbl.find_opt t.peer_faults router) ~default:no_peer_fault

(* The full wait a sender endures before giving up: the sum of the
   exponentially backed-off per-attempt timeouts. *)
let budget_wait retry =
  let rec go i timeout acc =
    if i > retry.max_attempts then acc else go (i + 1) (timeout *. retry.backoff) (acc +. timeout)
  in
  go 1 retry.base_timeout 0.0

(* One coin per (src, dst, tag, attempt, purpose): replay-deterministic
   and independent of call order, exactly like Adversary.coin. *)
let coin t ~src ~dst ~tag ~attempt ~purpose =
  let h =
    Crypto_sim.Siphash.hash_int64s t.key
      [ Int64.of_int src; Int64.of_int dst; Int64.of_int tag;
        Int64.of_int attempt; Int64.of_int purpose ]
  in
  Int64.to_float (Int64.shift_right_logical h 11) /. 9.007199254740992e15

let send t ?(retry = default_retry) ?(now = 0.0) ~src ~dst ~tag () =
  if retry.max_attempts < 1 then invalid_arg "Ctrl.send: max_attempts must be >= 1";
  if not (retry.base_timeout > 0.0) then
    invalid_arg "Ctrl.send: base_timeout must be positive";
  if not (retry.backoff >= 1.0) then invalid_arg "Ctrl.send: backoff below 1";
  t.sends <- t.sends + 1;
  let f = faults_for t ~src ~dst in
  (* A muted endpoint refuses participation outright: every attempt
     goes unanswered, the sender burns its whole retry budget and the
     exchange times out deterministically — no coins involved, so the
     surrounding sends' coin streams are unperturbed. *)
  let muted r =
    match (peer_fault t ~router:r).mute_from with
    | Some from -> now >= from
    | None -> false
  in
  let stalled r = (peer_fault t ~router:r).stall_margin in
  let rec go attempt waited timeout =
    t.attempts <- t.attempts + 1;
    if coin t ~src ~dst ~tag ~attempt ~purpose:0 < f.loss then begin
      t.losses <- t.losses + 1;
      if attempt >= retry.max_attempts then begin
        t.timeouts <- t.timeouts + 1;
        Timed_out { attempts = attempt; waited = waited +. timeout }
      end
      else go (attempt + 1) (waited +. timeout) (timeout *. retry.backoff)
    end
    else begin
      let duplicated = coin t ~src ~dst ~tag ~attempt ~purpose:1 < f.duplicate in
      if duplicated then t.duplicates <- t.duplicates + 1;
      let reordered = coin t ~src ~dst ~tag ~attempt ~purpose:2 < f.reorder in
      if reordered then t.reorders <- t.reorders + 1;
      Delivered
        { attempts = attempt; duplicated;
          extra_delay = waited +. (if reordered then f.reorder_delay else 0.0) }
    end
  in
  let outcome =
    if muted src || muted dst then begin
      t.mutes <- t.mutes + 1;
      t.attempts <- t.attempts + retry.max_attempts;
      t.losses <- t.losses + retry.max_attempts;
      t.timeouts <- t.timeouts + 1;
      Timed_out { attempts = retry.max_attempts; waited = budget_wait retry }
    end
    else
      match go 1 0.0 retry.base_timeout with
      | Delivered d as delivered -> (
          (* A staller acknowledges just under the timeout: the message
             gets through, but only after [margin] of the sender's whole
             retry budget has been consumed. *)
          match
            match stalled src with Some m -> Some m | None -> stalled dst
          with
          | Some margin ->
              t.stalls <- t.stalls + 1;
              Delivered
                { d with
                  extra_delay =
                    Float.max d.extra_delay (margin *. budget_wait retry) }
          | None -> delivered)
      | timed_out -> timed_out
  in
  (match t.observer with
  | None -> ()
  | Some f ->
      let attempts, ok =
        match outcome with
        | Delivered { attempts; _ } -> (attempts, true)
        | Timed_out { attempts; _ } -> (attempts, false)
      in
      f ~attempts ~ok);
  outcome

let set_observer t f = t.observer <- f

let stats t =
  { sends = t.sends; attempts = t.attempts; losses = t.losses;
    duplicates = t.duplicates; reorders = t.reorders; timeouts = t.timeouts;
    mutes = t.mutes; stalls = t.stalls }
