type policy = Flow | Content | Order | Timeliness

type t = {
  policy : policy;
  mutable packets : int;
  mutable bytes : int;
  fps : (int64, unit) Hashtbl.t;            (* Content and richer *)
  mutable seq_rev : int64 list;             (* Order and richer *)
  times : (int64, float) Hashtbl.t;         (* Timeliness *)
}

(* The fps table keeps its 64 initial buckets under every policy:
   [fingerprints] iterates in bucket order, and Byz's pruning depends on
   that order. *)
let create policy =
  { policy; packets = 0; bytes = 0; fps = Hashtbl.create 64; seq_rev = [];
    times = Hashtbl.create (if policy = Timeliness then 64 else 1) }

let policy t = t.policy

let keeps_identity t = t.policy <> Flow
let keeps_order t = match t.policy with Order | Timeliness -> true | Flow | Content -> false

let observe t ~fp ~size ~time =
  t.packets <- t.packets + 1;
  t.bytes <- t.bytes + size;
  if keeps_identity t then Hashtbl.replace t.fps fp ();
  if keeps_order t then t.seq_rev <- fp :: t.seq_rev;
  if t.policy = Timeliness then Hashtbl.replace t.times fp time

let packets t = t.packets
let bytes t = t.bytes
let mem t fp = keeps_identity t && Hashtbl.mem t.fps fp
let fingerprints t = Hashtbl.fold (fun fp () acc -> fp :: acc) t.fps []

let sequence t =
  if not (keeps_order t) then
    invalid_arg "Summary.sequence: policy keeps no ordering";
  Array.of_list (List.rev t.seq_rev)

let time_of t fp = if t.policy = Timeliness then Hashtbl.find_opt t.times fp else None

let state_words t =
  match t.policy with
  | Flow -> 2
  | Content -> 2 + Hashtbl.length t.fps
  | Order -> 2 + List.length t.seq_rev
  | Timeliness -> 2 + (2 * List.length t.seq_rev)

let copy t =
  { policy = t.policy; packets = t.packets; bytes = t.bytes;
    fps = Hashtbl.copy t.fps; seq_rev = t.seq_rev; times = Hashtbl.copy t.times }

let remove t fp =
  if keeps_identity t && Hashtbl.mem t.fps fp then begin
    Hashtbl.remove t.fps fp;
    t.packets <- t.packets - 1;
    if keeps_order t then t.seq_rev <- List.filter (fun f -> not (Int64.equal f fp)) t.seq_rev;
    Hashtbl.remove t.times fp
  end
