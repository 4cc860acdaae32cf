module Ev = Prioq.Event

type fbox = Ev.fbox = { mutable f : float }

type t = {
  clock : fbox;          (* flat box: advancing the clock never allocates *)
  (* Every event before [clock], and every event at [clock] whose key is
     at most [done_key], has run: the watermark {!fired} compares an
     unpushed event against. *)
  mutable done_key : int;
  scratch : fbox;        (* a time on its way into the queue *)
  events : Ev.t;
  cursor : Ev.cursor;    (* filled by every take from [events] *)
  rng : Random.State.t;
  mutable processed : int;
  mutable next_id : int;
  run_cpu : fbox;        (* flat, so {!run} allocates nothing *)
}

(* Tag-handler registry: event kinds the engine schedules without boxing
   a closure.  Handlers are installed at module-initialization time and
   the table is read-only afterwards.  Tag 0 is the legacy closure
   event: payload A is the thunk itself. *)
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

let create ?(seed = 1) () =
  { clock = { f = 0.0 }; done_key = min_int; scratch = { f = 0.0 };
    events = Ev.create (); cursor = Ev.cursor ();
    rng = Random.State.make [| seed; 0x51a7 |];
    processed = 0; next_id = 0; run_cpu = { f = 0.0 } }

let now t = t.clock.f
let clock t = t.clock
let rng t = t.rng

(* [Random.State.float]'s draw, bit for bit: the top 53 bits of a
   64-bit draw, redrawn while zero, times 2^-53, times the bound.  The
   library's [rawfloat] is recursive, so it is never inlined and boxes
   every result; [bits64] is inlined and returns unboxed. *)
let float_into rng (b : fbox) =
  let n = ref 0L in
  while !n = 0L do
    n := Int64.shift_right_logical (Random.State.bits64 rng) 11
  done;
  b.f <- Int64.to_float !n *. 0x1.p-53 *. b.f

let jitter_into rng ~bound (b : fbox) =
  if bound > 0.0 then begin
    b.f <- bound;
    float_into rng b
  end
  else b.f <- 0.0

(* --- scheduling ----------------------------------------------------- *)

let reserve_key t = Ev.reserve t.events

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

(* --- the dispatch loop ---------------------------------------------- *)

(* Run the event taken into [c] under handle [h].  Its payloads go from
   the queue's cells into locals, and the handle is freed (scrubbing the
   cells) before the handler runs: the handler may run arbitrarily long
   and the payloads must not out-live it.  Copying them through the
   cursor instead would cost four write barriers an event. *)
let exec t (c : Ev.cursor) h =
  let q = t.events in
  let a = Ev.payload_a q h and b = Ev.payload_b q h in
  Ev.free q h;
  let time = c.Ev.time.f and key = c.Ev.key_out in
  (* The watermark only grows within an instant: a run that stopped
     here has already raised it to [max_int]. *)
  if time > t.clock.f || key > t.done_key then t.done_key <- key;
  t.clock.f <- time;
  t.processed <- t.processed + 1;
  let tag = c.Ev.tag in
  if tag = 0 then (Obj.obj a : unit -> unit) ()
  else (Array.unsafe_get !handlers tag) t a b c.Ev.iarg

let run ?until t =
  let cpu0 = Sys.time () in
  let limit = match until with None -> Float.infinity | Some u -> u in
  let c = t.cursor in
  let h = ref (Ev.take t.events ~until:limit ~strict:false c) in
  while !h >= 0 do
    exec t c !h;
    h := Ev.take t.events ~until:limit ~strict:false c
  done;
  t.run_cpu.f <- t.run_cpu.f +. (Sys.time () -. cpu0);
  (* Everything at or before [until] has run: move the clock and the
     watermark there. *)
  match until with
  | Some u when u >= t.clock.f ->
      t.clock.f <- u;
      t.done_key <- max_int
  | Some _ | None -> ()

let events_processed t = t.processed
let pending t = Ev.length t.events
let cpu_time_in_run t = t.run_cpu.f

let fresh_id t =
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  id
