type id = int

let network_pid = 1
let detector_pid = 2

type verdict = {
  time : float;
  detector : string;
  subject : int option;
  suspects : int list;
  confidence : float option;
  alarm : bool;
  detail : string;
  evidence : id list;
}

type kind =
  | Complete of { mutable duration : float }
  | Instant
  | Verdict of verdict

(* Inline-field sentinel: hop entries carry their two routers and the
   packet uid as immediate ints instead of [routers]/[args] lists, so
   the full-rate tracing path allocates one record per span rather than
   a record plus four list cells and two boxes.  [no_field] marks an
   absent inline field; router ids and uids are non-negative, so the
   sentinel can never collide. *)
let no_field = min_int

(* The hop-entry fields are mutable so evicted hop records can be
   recycled in place on the full-rate path (see [hop_span]); [cat],
   [routers], [args] and [kind] stay immutable — recycling is restricted
   to entries where those already hold the hop-span values. *)
type entry = {
  mutable id : id;
  mutable trace : int;
  mutable name : string;
  cat : string;
  mutable pid : int;
  mutable tid : int;
  mutable time : float;
  routers : int list;
  args : (string * Export.json) list;
  mutable hop_r1 : int;
  mutable hop_r2 : int;
  mutable hop_pkt : int;
  kind : kind;
}

let entry_routers e =
  if e.routers <> [] then e.routers
  else if e.hop_r1 = no_field then []
  else if e.hop_r2 = no_field then [ e.hop_r1 ]
  else [ e.hop_r1; e.hop_r2 ]

let entry_args e =
  if e.hop_pkt = no_field then e.args
  else
    ("pkt", Export.Int e.hop_pkt) :: ("next", Export.Int e.hop_r2) :: e.args

type t = {
  ring : entry Journal.t;
  flight : int;
  sample : float;
  rng : Random.State.t;
  mutable next_id : int;
  mutable next_trace : int;
  mutable traces_started : int;
  mutable traces_sampled : int;
  processes : (int, string) Hashtbl.t;
  threads : (int * int, string) Hashtbl.t;
  thread_ids : (int * string, int) Hashtbl.t;
  next_tid : (int, int) Hashtbl.t;
  (* Flight recorder: entries pinned against ring eviction. *)
  mutable flight_rev : entry list;
  pinned_ids : (id, unit) Hashtbl.t;
}

let create ?(capacity = 65536) ?(flight = 256) ?(sample = 1.0) ?(seed = 0) () =
  if flight < 0 then invalid_arg "Span.create: flight window must be non-negative";
  if not (Float.is_finite sample) || sample < 0.0 || sample > 1.0 then
    invalid_arg "Span.create: sample must lie in [0,1]";
  let t =
    { ring = Journal.create ~capacity ();
      flight;
      sample;
      rng = Random.State.make [| 0x7370616e; seed |];
      next_id = 1;
      next_trace = 1;
      traces_started = 0;
      traces_sampled = 0;
      processes = Hashtbl.create 4;
      threads = Hashtbl.create 16;
      thread_ids = Hashtbl.create 16;
      next_tid = Hashtbl.create 4;
      flight_rev = [];
      pinned_ids = Hashtbl.create 64 }
  in
  Hashtbl.replace t.processes network_pid "netsim";
  Hashtbl.replace t.processes detector_pid "detectors";
  t

let sample_rate t = t.sample

let new_trace t =
  t.traces_started <- t.traces_started + 1;
  (* Draw even at rate 1.0 so switching the rate never perturbs which
     packets later draws select (the stream position stays aligned). *)
  let coin = Random.State.float t.rng 1.0 in
  if t.sample > 0.0 && (t.sample >= 1.0 || coin < t.sample) then begin
    t.traces_sampled <- t.traces_sampled + 1;
    let id = t.next_trace in
    t.next_trace <- t.next_trace + 1;
    Some id
  end
  else None

let traces_started t = t.traces_started
let traces_sampled t = t.traces_sampled

let set_process t ~pid name = Hashtbl.replace t.processes pid name

let set_thread t ~pid ~tid name =
  Hashtbl.replace t.threads (pid, tid) name;
  Hashtbl.replace t.thread_ids (pid, name) tid

let thread t ~pid name =
  match Hashtbl.find_opt t.thread_ids (pid, name) with
  | Some tid -> tid
  | None ->
      let tid = Option.value ~default:0 (Hashtbl.find_opt t.next_tid pid) in
      Hashtbl.replace t.next_tid pid (tid + 1);
      set_thread t ~pid ~tid name;
      tid

let process_names t = Hashtbl.fold (fun pid n acc -> (pid, n) :: acc) t.processes []
let thread_names t = Hashtbl.fold (fun k n acc -> (k, n) :: acc) t.threads []

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let span t ?(trace = 0) ~name ?(cat = "") ~pid ~tid ~start ~finish ?(routers = [])
    ?(args = []) () =
  let id = fresh_id t in
  Journal.record t.ring
    { id; trace; name; cat; pid; tid; time = start; routers; args;
      hop_r1 = no_field; hop_r2 = no_field; hop_pkt = no_field;
      kind = Complete { duration = Float.max 0.0 (finish -. start) } };
  id

let instant t ?(trace = 0) ~name ?(cat = "") ~pid ~tid ~time ?(routers = [])
    ?(args = []) () =
  let id = fresh_id t in
  Journal.record t.ring
    { id; trace; name; cat; pid; tid; time; routers; args;
      hop_r1 = no_field; hop_r2 = no_field; hop_pkt = no_field;
      kind = Instant };
  id

(* The full-rate tracing fast path: a per-hop span whose two routers
   and packet uid live in inline int fields (exported identically to
   [~routers:[router; next] ~args:[("pkt", ...); ("next", ...)]]).

   Once the ring has wrapped, the entry being evicted is recycled in
   place instead of allocating a fresh record — but only when it is
   itself an unpinned hop entry, so the immutable [cat]/[routers]/
   [args] fields already hold the hop-span values and no reference to
   it survives in the flight recorder.  Sustained full-rate tracing
   then allocates only the boxed float writes, not a record plus a
   [Complete] block per hop. *)
let hop_span t ~trace ~name ~pid ~tid ~start ~finish ~router ~next ~pkt =
  let id = fresh_id t in
  let duration = Float.max 0.0 (finish -. start) in
  let recycled =
    Journal.full t.ring
    &&
    let e = Journal.evictee t.ring in
    e.hop_pkt <> no_field
    && (not (Hashtbl.mem t.pinned_ids e.id))
    &&
    match e.kind with
    | Complete c ->
        e.id <- id;
        e.trace <- trace;
        e.name <- name;
        e.pid <- pid;
        e.tid <- tid;
        e.time <- start;
        e.hop_r1 <- router;
        e.hop_r2 <- next;
        e.hop_pkt <- pkt;
        c.duration <- duration;
        Journal.record t.ring e;
        true
    | Instant | Verdict _ -> false
  in
  if not recycled then
    Journal.record t.ring
      { id; trace; name; cat = "hop"; pid; tid; time = start; routers = [];
        args = []; hop_r1 = router; hop_r2 = next; hop_pkt = pkt;
        kind = Complete { duration } };
  id

(* --- flight recorder --- *)

let pin_entry t e =
  if not (Hashtbl.mem t.pinned_ids e.id) then begin
    Hashtbl.add t.pinned_ids e.id ();
    t.flight_rev <- e :: t.flight_rev
  end

(* Pin every evidence entry still in the ring, plus the newest [flight]
   entries mentioning any of the routers (all retained entries when
   [routers] is empty). *)
let pin_window t ~routers ~evidence =
  let wanted = Hashtbl.create (List.length evidence * 2) in
  List.iter (fun id -> Hashtbl.replace wanted id ()) evidence;
  let matched = ref [] in
  Journal.iter t.ring (fun e ->
      if Hashtbl.mem wanted e.id then pin_entry t e
      else if
        routers = []
        || List.exists (fun r -> List.mem r routers) (entry_routers e)
      then matched := e :: !matched);
  (* [matched] is newest-first: pin the window head. *)
  List.iteri (fun i e -> if i < t.flight then pin_entry t e) !matched

let pin_recent t ?(routers = []) () =
  pin_window t ~routers ~evidence:[];
  Hashtbl.length t.pinned_ids

let verdict t (v : verdict) =
  let tid = thread t ~pid:detector_pid v.detector in
  let implicated =
    List.sort_uniq compare (Option.to_list v.subject @ v.suspects)
  in
  pin_window t ~routers:implicated ~evidence:v.evidence;
  let id = fresh_id t in
  let e =
    { id; trace = 0; name = v.detector ^ " verdict"; cat = "verdict";
      pid = detector_pid; tid; time = v.time; routers = implicated; args = [];
      hop_r1 = no_field; hop_r2 = no_field; hop_pkt = no_field;
      kind = Verdict v }
  in
  Journal.record t.ring e;
  pin_entry t e;
  id

(* --- reading --- *)

let entries t =
  let acc = ref [] in
  let in_ring = Hashtbl.create 256 in
  Journal.iter t.ring (fun e ->
      Hashtbl.replace in_ring e.id ();
      acc := e :: !acc);
  List.iter
    (fun e -> if not (Hashtbl.mem in_ring e.id) then acc := e :: !acc)
    t.flight_rev;
  List.sort
    (fun a b ->
      match compare a.time b.time with 0 -> compare a.id b.id | c -> c)
    !acc

let find t id =
  let found = ref None in
  Journal.iter t.ring (fun e -> if e.id = id then found := Some e);
  (match !found with
  | Some _ -> ()
  | None ->
      List.iter (fun e -> if e.id = id then found := Some e) t.flight_rev);
  !found

let recorded t = Journal.total t.ring
let dropped t = Journal.dropped t.ring
let pinned t = List.length t.flight_rev
