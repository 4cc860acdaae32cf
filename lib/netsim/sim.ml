(* Deterministic-rank context, one per domain.

   The sharded engine needs every event to carry a tie-break key that is
   identical for any shard count K: the obvious per-heap sequence number
   depends on which shard inserted the event and in what order, so it
   cannot be used.  Instead each event gets a rank derived purely from
   its *causal* position — rank = mix (parent rank, i) for the i-th
   event scheduled while executing the parent, and mix (0, i) for the
   i-th event scheduled outside any event (setup code).  The mix is
   a splitmix64-style finalizer truncated to a non-negative OCaml int
   (62 bits), so ranks are effectively collision-free and, crucially,
   K-invariant: the causal tree of events does not depend on how routers
   are partitioned.

   The context lives in domain-local storage so each shard domain tracks
   its own executing event without synchronization. *)
module Det = struct
  type ctx = {
    mutable active : bool;  (* currently executing an event *)
    mutable parent : int;   (* rank of the executing event *)
    mutable child_ix : int; (* events scheduled by the executing event *)
    mutable obs_ix : int;   (* observations emitted by the executing event *)
    mutable root_ix : int;  (* root events scheduled outside any event *)
  }

  let key =
    Domain.DLS.new_key (fun () ->
        { active = false; parent = 0; child_ix = 0; obs_ix = 0; root_ix = 0 })

  let ctx () = Domain.DLS.get key

  let mix a b =
    let z =
      let open Int64 in
      let z = add (mul (of_int a) 0x9E3779B97F4A7C15L) (of_int (b + 1)) in
      let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
      let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
      logxor z (shift_right_logical z 31)
    in
    Int64.to_int z land max_int

  let fresh_rank () =
    let c = ctx () in
    if c.active then begin
      let i = c.child_ix in
      c.child_ix <- i + 1;
      mix c.parent i
    end
    else begin
      let i = c.root_ix in
      c.root_ix <- i + 1;
      mix 0 i
    end

  let reset () =
    let c = ctx () in
    c.active <- false;
    c.parent <- 0;
    c.child_ix <- 0;
    c.obs_ix <- 0;
    c.root_ix <- 0

  let enter rank =
    let c = ctx () in
    c.active <- true;
    c.parent <- rank;
    c.child_ix <- 0;
    c.obs_ix <- 0

  let leave () = (ctx ()).active <- false
end

module Ev = Prioq.Event

type fbox = Ev.fbox = { mutable f : float }

type t = {
  clock : fbox;          (* flat box: advancing the clock never allocates *)
  (* Every event before [clock], and every event at [clock] whose key is
     at most [done_key], has run: the watermark {!fired} compares an
     unpushed event against. *)
  mutable done_key : int;
  scratch : fbox;        (* a time on its way into the heap *)
  events : Ev.t;
  cursor : Ev.cursor;    (* reused by every pop of this heap *)
  rng : Random.State.t;
  mutable processed : int;
  mutable next_id : int;
  mutable run_cpu : float;
  det : bool;
}

(* Tag-handler registry: event kinds the engine schedules without boxing
   a closure.  Handlers are installed at module-initialization time
   (single-threaded), the table is read-only afterwards, so shard
   domains dispatch through it without synchronization.  Tag 0 is the
   legacy closure event: payload A is the thunk itself. *)
let handlers : (t -> Obj.t -> Obj.t -> int -> unit) array ref =
  ref (Array.make 8 (fun _ _ _ _ -> ()))

let handler_count = ref 1

let new_tag f =
  let tag = !handler_count in
  if tag > 0xff then invalid_arg "Sim.new_tag: tag space exhausted";
  if tag >= Array.length !handlers then begin
    let bigger = Array.make (2 * Array.length !handlers) (fun _ _ _ _ -> ()) in
    Array.blit !handlers 0 bigger 0 (Array.length !handlers);
    handlers := bigger
  end;
  !handlers.(tag) <- f;
  handler_count := tag + 1;
  tag

let nil = Ev.nil

let create ?(seed = 1) ?(det = false) () =
  { clock = { f = 0.0 }; done_key = min_int; scratch = { f = 0.0 };
    events = Ev.create (); cursor = Ev.cursor ();
    rng = Random.State.make [| seed; 0x51a7 |];
    processed = 0; next_id = 0; run_cpu = 0.0; det }

let now t = t.clock.f
let clock t = t.clock
let rng t = t.rng

(* --- scheduling ----------------------------------------------------- *)

let reserve_key t = if t.det then Det.fresh_rank () else Ev.reserve t.events

let fired t ~(at : fbox) ~key =
  let x = at.f and now = t.clock.f in
  x < now || (x = now && key <= t.done_key)

(* Only the failure path formats (and so boxes) the time. *)
let bad_time t what x =
  if x -. x <> 0.0 then invalid_arg (Printf.sprintf "%s: non-finite time %g" what x)
  else
    invalid_arg
      (Printf.sprintf "%s: time %.9f is in the past (now %.9f)" what x t.clock.f)

let check t (at : fbox) what =
  let x = at.f in
  if not (x -. x = 0.0 && x >= t.clock.f -. 1e-12) then bad_time t what x

(* Insert at [at] raised to now (a time within 1e-12 before now passes
   {!check}); [at] may be [t.scratch] itself. *)
let push t (at : fbox) ~key ~tag ~i a b =
  let x = at.f and now = t.clock.f in
  t.scratch.f <- (if x > now then x else now);
  Ev.push_keyed t.events ~at:t.scratch ~key ~tag ~iarg:i a b

let schedule_ev t ~at ~tag ~i a b =
  check t at "Sim.schedule_ev";
  push t at ~key:(reserve_key t) ~tag ~i a b

let schedule_ev_keyed t ~at ~key ~tag ~i a b =
  check t at "Sim.schedule_ev_keyed";
  push t at ~key ~tag ~i a b

let schedule_at t ~time thunk =
  t.scratch.f <- time;
  check t t.scratch "Sim.schedule_at";
  push t t.scratch ~key:(reserve_key t) ~tag:0 ~i:0 (Obj.repr thunk) nil

let schedule t ~delay thunk =
  if delay < 0.0 then invalid_arg "Sim.schedule: negative delay";
  if delay -. delay <> 0.0 then invalid_arg "Sim.schedule: non-finite delay";
  t.scratch.f <- t.clock.f +. delay;
  check t t.scratch "Sim.schedule";
  push t t.scratch ~key:(reserve_key t) ~tag:0 ~i:0 (Obj.repr thunk) nil

let reset_det_context () = Det.reset ()
let current_rank () = (Det.ctx ()).parent

let next_obs_ix () =
  let c = Det.ctx () in
  let i = c.obs_ix in
  c.obs_ix <- i + 1;
  i

(* --- the dispatch loop ---------------------------------------------- *)

let dispatch t (c : Ev.cursor) =
  let tag = c.Ev.tag in
  let a = c.Ev.pa and b = c.Ev.pb in
  (* Drop the cursor's references before running the event: the handler
     may run arbitrarily long and the payloads must not out-live it. *)
  c.Ev.pa <- nil;
  c.Ev.pb <- nil;
  if tag = 0 then (Obj.obj a : unit -> unit) ()
  else (Array.unsafe_get !handlers tag) t a b c.Ev.iarg

let exec t (c : Ev.cursor) =
  let time = c.Ev.time.f and key = c.Ev.key_out in
  (* Ranks are not monotone within an instant, so keep the largest. *)
  if time > t.clock.f || key > t.done_key then t.done_key <- key;
  t.clock.f <- time;
  t.processed <- t.processed + 1;
  if t.det then begin
    Det.enter c.Ev.key_out;
    match dispatch t c with
    | () -> Det.leave ()
    | exception e ->
        Det.leave ();
        raise e
  end
  else dispatch t c

(* Everything before [until] has run, and everything at [until] too
   when [inclusive]: move the clock and the watermark there. *)
let settle t ~until ~inclusive =
  if until > t.clock.f then begin
    t.clock.f <- until;
    t.done_key <- (if inclusive then max_int else min_int)
  end
  else if inclusive && until = t.clock.f then t.done_key <- max_int

let run ?until t =
  let cpu0 = Sys.time () in
  let limit = match until with None -> Float.infinity | Some u -> u in
  let c = t.cursor in
  while Ev.pop t.events ~until:limit ~strict:false c do
    exec t c
  done;
  t.run_cpu <- t.run_cpu +. (Sys.time () -. cpu0);
  match until with Some u -> settle t ~until:u ~inclusive:true | None -> ()

let run_window t ~until ~inclusive =
  let cpu0 = Sys.time () in
  let c = t.cursor in
  while Ev.pop t.events ~until ~strict:(not inclusive) c do
    exec t c
  done;
  t.run_cpu <- t.run_cpu +. (Sys.time () -. cpu0);
  settle t ~until ~inclusive

let next_key t = Ev.peek_key t.events

let run_next t =
  if Ev.pop t.events ~until:Float.infinity ~strict:false t.cursor then
    exec t t.cursor

let events_processed t = t.processed
let pending t = Ev.length t.events
let cpu_time_in_run t = t.run_cpu

let fresh_id t =
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  id
