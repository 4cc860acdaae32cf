(* Conservative-synchronization parallel discrete-event engine.

   The router graph is partitioned into K contiguous regions (multi-source
   BFS from evenly spaced seeds).  Each shard owns one deterministic-rank
   [Sim.t] heap and runs on its own domain; a separate control-plane sim
   (detectors, TCP endpoints, fault injector) runs on the coordinator.

   Synchronization is the classic null-message/time-window scheme: within
   an epoch the coordinator repeatedly (1) drains every cross-shard
   outbox into the destination heaps, (2) computes T_min, the earliest
   pending data event anywhere, and (3) lets all shards run the half-open
   window [.., min (T_min + lookahead, epoch_end)) in parallel, where
   lookahead is the minimum latency of any cross-shard link.  A packet
   handed to a cross-shard link at time t arrives no earlier than
   t + lookahead >= T_min + lookahead, i.e. never inside the window that
   produced it, so each shard can process its window without hearing from
   the others — the conservative guarantee.

   Determinism (byte-identical output for any K) rests on three
   invariants, each K-independent by construction:
   - every event carries a causal rank ({!Sim} det mode), so same-time
     events merge in one global order no matter which heap held them;
   - all control-plane work and all observation delivery happen at epoch
     boundaries, where every shard clock equals the boundary exactly;
   - observations emitted inside windows are buffered per shard with
     their (time, rank, emission index) key and k-way merged with
     control events at the flush, so probes (and the Stats collector
     they feed), journals, traces and listeners see the exact
     single-heap order. *)

type obs =
  | Obs_iface of Probe.iface_record
  | Obs_router of Probe.router_record
  | Obs_originate of Packet.t
  | Obs_app of { node : int; pkt : Packet.t }

type obs_rec = { at : float; rank : int; ix : int; obs : obs }

(* A cross-shard handoff travels as a flat tagged-event descriptor, not
   a closure: the receive step is a registered {!Sim} tag plus two
   payload words, so posting allocates one message record and its time
   box and nothing else. *)
type msg = {
  time : Sim.fbox;
  rank : int;
  dest : int;
  tag : int;
  i : int;
  a : Obj.t;
  b : Obj.t;
}

(* Minimal growable buffer (no Dynarray on this compiler).  [clear]
   keeps the backing array — the per-epoch observation buffers reach a
   steady-state capacity once and are reused for the rest of the run —
   but scrubs the vacated slots so cleared records stay collectable. *)
module Buf = struct
  type 'a t = { mutable arr : 'a array; mutable len : int }

  let create () = { arr = [||]; len = 0 }

  let push t x =
    let cap = Array.length t.arr in
    if t.len = cap then begin
      let arr = Array.make (max 64 (2 * cap)) x in
      Array.blit t.arr 0 arr 0 t.len;
      t.arr <- arr
    end;
    t.arr.(t.len) <- x;
    t.len <- t.len + 1

  let get t i = t.arr.(i)
  let length t = t.len

  let clear t =
    if t.len > 0 then Array.fill t.arr 0 t.len (Obj.magic 0);
    t.len <- 0
end

(* Which shard the calling domain is executing a window for; -1 on the
   coordinator outside windows.  Lets [Net]'s event callbacks decide
   between buffering (inside a window) and direct delivery (at a
   barrier) without threading a context through every closure. *)
let me_key = Domain.DLS.new_key (fun () -> -1)
let current () = Domain.DLS.get me_key
let in_window () = current () >= 0

type t = {
  k : int;
  owner : int array; (* router -> shard *)
  sims : Sim.t array; (* one data-plane heap per shard *)
  ctrl : Sim.t; (* control plane, coordinator only *)
  lookahead : float; (* min cross-shard link latency; infinity when none *)
  epoch : float;
  (* Cross-shard handoffs, one buffer per *source* shard: only that
     shard's domain pushes, inside a window; the coordinator drains them
     between windows, after the handshake that ends the window. *)
  outbox : msg Buf.t array;
  obs_bufs : obs_rec Buf.t array; (* per shard, flushed each epoch *)
  mutable crossed : int;
  mutable next_epoch : float;
  mutable windows : int;
  mutable epochs : int;
}

let k t = t.k
let owner t router = t.owner.(router)
let shard_sim t s = t.sims.(s)
let ctrl_sim t = t.ctrl
let lookahead t = t.lookahead
let epoch t = t.epoch
let windows_run t = t.windows
let epochs_run t = t.epochs

let cross_messages t = t.crossed

(* Contiguous partition: BFS outward from k evenly spaced seed routers,
   expanding the k frontiers round-robin so regions stay balanced.
   Disconnected leftovers are seeded deterministically into the
   currently smallest shard. *)
let partition graph ~k =
  let n = Topology.Graph.size graph in
  if k < 1 then invalid_arg "Shard.partition: need at least one shard";
  if k > n then
    invalid_arg
      (Printf.sprintf "Shard.partition: %d shards for %d routers" k n);
  let owner = Array.make n (-1) in
  let sizes = Array.make k 0 in
  let queues = Array.init k (fun _ -> Queue.create ()) in
  let assign s v =
    owner.(v) <- s;
    sizes.(s) <- sizes.(s) + 1;
    Queue.add v queues.(s)
  in
  for s = 0 to k - 1 do
    assign s (s * n / k)
  done;
  let remaining = ref (n - k) in
  while !remaining > 0 do
    let moved = ref false in
    for s = 0 to k - 1 do
      if not (Queue.is_empty queues.(s)) then begin
        let v = Queue.pop queues.(s) in
        List.iter
          (fun w ->
            if owner.(w) < 0 then begin
              assign s w;
              decr remaining;
              moved := true
            end)
          (Topology.Graph.out_neighbors graph v);
        (* Keep the frontier alive until all its neighbours are taken. *)
        if List.exists (fun w -> owner.(w) < 0) (Topology.Graph.out_neighbors graph v)
        then Queue.add v queues.(s)
      end
    done;
    if (not !moved) && Array.for_all Queue.is_empty queues then begin
      (* Disconnected component: seed the smallest shard at the first
         unowned router. *)
      let s = ref 0 in
      for i = 1 to k - 1 do
        if sizes.(i) < sizes.(!s) then s := i
      done;
      let v = ref 0 in
      while owner.(!v) >= 0 do
        incr v
      done;
      assign !s !v;
      decr remaining
    end
  done;
  owner

let min_cross_latency graph owner =
  List.fold_left
    (fun acc (l : Topology.Graph.link) ->
      if owner.(l.src) <> owner.(l.dst) then Float.min acc l.delay else acc)
    Float.infinity (Topology.Graph.links graph)

let create ~seed ?(epoch = 0.1) ~graph ~k () =
  if epoch <= 0.0 then invalid_arg "Shard.create: epoch must be positive";
  let owner = partition graph ~k in
  let lookahead = min_cross_latency graph owner in
  if k > 1 && lookahead <= 0.0 then
    invalid_arg
      "Shard.create: a zero-latency cross-shard link leaves no lookahead \
       (conservative synchronization needs every cross-shard link delay > 0)";
  (* Fresh root-rank context so consecutive engines in one process draw
     identical setup-event ranks. *)
  Sim.reset_det_context ();
  { k; owner;
    sims = Array.init k (fun s -> Sim.create ~seed:(seed + (7919 * (s + 1))) ~det:true ());
    ctrl = Sim.create ~seed ~det:true ();
    lookahead; epoch;
    outbox = Array.init k (fun _ -> Buf.create ());
    obs_bufs = Array.init k (fun _ -> Buf.create ());
    crossed = 0; next_epoch = epoch; windows = 0; epochs = 0 }

let record t obs =
  let s = current () in
  let sim = t.sims.(s) in
  Buf.push t.obs_bufs.(s)
    { at = Sim.now sim; rank = Sim.current_rank (); ix = Sim.next_obs_ix (); obs }

let post t ~dest ~(at : Sim.fbox) ~rank ~tag ~i a b =
  let s = current () in
  if s = dest || s < 0 then
    (* Same shard, or coordinator context at a barrier: the destination
       heap is not being mutated by anyone else — schedule directly. *)
    Sim.schedule_ev_keyed t.sims.(dest) ~at ~key:rank ~tag ~i a b
  else Buf.push t.outbox.(s) { time = { Sim.f = at.f }; rank; dest; tag; i; a; b }

let drain_outboxes t =
  Array.iter
    (fun box ->
      for j = 0 to Buf.length box - 1 do
        let m = Buf.get box j in
        Sim.schedule_ev_keyed t.sims.(m.dest) ~at:m.time ~key:m.rank ~tag:m.tag ~i:m.i
          m.a m.b
      done;
      t.crossed <- t.crossed + Buf.length box;
      Buf.clear box)
    t.outbox

let data_min t =
  Array.fold_left
    (fun acc sim ->
      match Sim.next_key sim with
      | None -> acc
      | Some (time, _) -> Float.min acc time)
    Float.infinity t.sims

(* ------------------------------------------------------------------ *)
(* Worker pool: K-1 domains, one per shard >= 1 (shard 0 runs inline on
   the coordinator).  Jobs are handed over a per-worker mutex/condvar
   pair; the same pair signals completion back.  An exception inside a
   window is captured and re-raised on the coordinator after the
   barrier, so a crashing detector assertion behaves like the
   single-domain engine (and the flight recorder still fires). *)

type job = Window of { until : float; inclusive : bool } | Quit

type worker = {
  mu : Mutex.t;
  cv : Condition.t;
  mutable job : job option;
  mutable done_ : bool;
  mutable err : exn option;
}

type pool = Inline | Domains of worker array * unit Domain.t array

let worker_loop t s w =
  Domain.DLS.set me_key s;
  let stop = ref false in
  while not !stop do
    Mutex.lock w.mu;
    while w.job = None do
      Condition.wait w.cv w.mu
    done;
    let job = Option.get w.job in
    w.job <- None;
    Mutex.unlock w.mu;
    (match job with
    | Quit -> stop := true
    | Window { until; inclusive } -> (
        try Sim.run_window t.sims.(s) ~until ~inclusive
        with e -> w.err <- Some e));
    Mutex.lock w.mu;
    w.done_ <- true;
    Condition.signal w.cv;
    Mutex.unlock w.mu
  done

let make_pool t =
  if t.k = 1 then Inline
  else begin
    let workers =
      Array.init (t.k - 1) (fun _ ->
          { mu = Mutex.create (); cv = Condition.create (); job = None; done_ = false;
            err = None })
    in
    let domains =
      Array.init (t.k - 1) (fun i ->
          Domain.spawn (fun () -> worker_loop t (i + 1) workers.(i)))
    in
    Domains (workers, domains)
  end

let dispatch w job =
  Mutex.lock w.mu;
  w.job <- Some job;
  w.done_ <- false;
  Condition.signal w.cv;
  Mutex.unlock w.mu

let await w =
  Mutex.lock w.mu;
  while not w.done_ do
    Condition.wait w.cv w.mu
  done;
  Mutex.unlock w.mu

let shutdown_pool = function
  | Inline -> ()
  | Domains (workers, domains) ->
      Array.iter (fun w -> dispatch w Quit) workers;
      Array.iter Domain.join domains

(* Run the window [.., until) (inclusive at the final horizon) on every
   shard in parallel; shard 0 executes inline on the coordinator. *)
let window t pool ~until ~inclusive =
  t.windows <- t.windows + 1;
  (match pool with
  | Inline ->
      Domain.DLS.set me_key 0;
      Fun.protect
        ~finally:(fun () -> Domain.DLS.set me_key (-1))
        (fun () -> Sim.run_window t.sims.(0) ~until ~inclusive)
  | Domains (workers, _) ->
      Array.iter (fun w -> dispatch w (Window { until; inclusive })) workers;
      let inline_err =
        Domain.DLS.set me_key 0;
        match Sim.run_window t.sims.(0) ~until ~inclusive with
        | () ->
            Domain.DLS.set me_key (-1);
            None
        | exception e ->
            Domain.DLS.set me_key (-1);
            Some e
      in
      Array.iter await workers;
      (match inline_err with Some e -> raise e | None -> ());
      Array.iter (fun w -> match w.err with Some e -> w.err <- None; raise e | None -> ()) workers)

let obs_key r = (r.at, r.rank, r.ix)

(* Flush one epoch: merge the per-shard observation buffers with pending
   control events (<= boundary) in (time, rank, ix) order, delivering
   each through [emit] / running each control event inline.  Runs on the
   coordinator at a barrier, so emits may touch probes, journals,
   listeners and the network freely. *)
let flush t ~boundary ~emit =
  let idx = Array.make t.k 0 in
  let next_obs () =
    let best = ref None in
    for s = 0 to t.k - 1 do
      if idx.(s) < Buf.length t.obs_bufs.(s) then begin
        let r = Buf.get t.obs_bufs.(s) idx.(s) in
        match !best with
        | Some (_, r') when obs_key r' <= obs_key r -> ()
        | _ -> best := Some (s, r)
      end
    done;
    !best
  in
  let rec loop () =
    let ctrl_next = Sim.next_key t.ctrl in
    match (next_obs (), ctrl_next) with
    | Some (s, r), Some (tc, rc)
      when tc <= boundary && (tc, rc, 0) <= obs_key r ->
        ignore s;
        Sim.run_next t.ctrl;
        loop ()
    | Some (s, r), _ ->
        idx.(s) <- idx.(s) + 1;
        emit r;
        loop ()
    | None, Some (tc, _) when tc <= boundary ->
        Sim.run_next t.ctrl;
        loop ()
    | None, _ -> ()
  in
  loop ();
  Array.iter Buf.clear t.obs_bufs;
  Sim.settle t.ctrl ~until:boundary ~inclusive:true

(* Advance every shard to [boundary], then flush.  [final] switches the
   last window to inclusive and keeps looping until no event <= boundary
   remains anywhere (a cross-shard handoff emitted during an inclusive
   window can land exactly at the horizon and must still run). *)
let advance_to t pool ~boundary ~final ~emit =
  let continue = ref true in
  while !continue do
    drain_outboxes t;
    let tmin = data_min t in
    if tmin < boundary || (final && tmin <= boundary) then begin
      let until = Float.min (tmin +. t.lookahead) boundary in
      let inclusive = final && until >= boundary in
      window t pool ~until ~inclusive
    end
    else continue := false
  done;
  (* Every shard has now run everything before the boundary (and, in
     the final call, at it): scheduling at the barrier (control plane,
     outbox drains) sees one global time. *)
  Array.iter (fun sim -> Sim.settle sim ~until:boundary ~inclusive:final) t.sims;
  t.epochs <- t.epochs + 1;
  flush t ~boundary ~emit

let pending t =
  Array.fold_left (fun acc sim -> acc + Sim.pending sim) (Sim.pending t.ctrl) t.sims

let mail_pending t = Array.exists (fun m -> Buf.length m > 0) t.outbox

let run ?until ?on_epoch t ~emit =
  let pool = make_pool t in
  Fun.protect
    ~finally:(fun () -> shutdown_pool pool)
    (fun () ->
      let epoch_done boundary =
        match on_epoch with None -> () | Some f -> f ~now:boundary
      in
      match until with
      | Some horizon ->
          while t.next_epoch < horizon do
            advance_to t pool ~boundary:t.next_epoch ~final:false ~emit;
            epoch_done t.next_epoch;
            t.next_epoch <- t.next_epoch +. t.epoch
          done;
          advance_to t pool ~boundary:horizon ~final:true ~emit;
          epoch_done horizon;
          while t.next_epoch <= horizon do
            t.next_epoch <- t.next_epoch +. t.epoch
          done
      | None ->
          (* No horizon: step epochs until the whole engine is quiescent. *)
          while pending t > 0 || mail_pending t do
            advance_to t pool ~boundary:t.next_epoch ~final:false ~emit;
            epoch_done t.next_epoch;
            t.next_epoch <- t.next_epoch +. t.epoch
          done)

let events_processed t =
  Array.fold_left
    (fun acc sim -> acc + Sim.events_processed sim)
    (Sim.events_processed t.ctrl)
    t.sims

let cpu_time_in_run t =
  Array.fold_left
    (fun acc sim -> acc +. Sim.cpu_time_in_run sim)
    (Sim.cpu_time_in_run t.ctrl)
    t.sims
