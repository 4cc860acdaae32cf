type 'kind view = {
  clock : Sim.fbox;
  router : int;
  mutable next : int;
  mutable kind : 'kind;
  mutable pkt : Packet.t;
  mutable arg : float;
}

type iface_view = Iface.event view
type router_view = Router.event view

type verdict = Telemetry.Span.verdict

type fault_record = {
  time : float;
  kind : string;
  routers : int list;
  detail : string;
}

type layer = Link of Iface.event | Node of Router.event | Verdict of verdict | Fault of fault_record

(* An entry is built only when the journal is read: the ring below
   keeps scalars. *)
type entry = {
  at : float;
  arg : float;  (* a Node entry's delay, or its fragment count *)
  layer : layer;
  router : int;
  next : int;
  (* The packet's content, as {!describe} and the JSONL export read it. *)
  uid : int;
  src : int;
  dst : int;
  flow : int;
  size : int;
  proto : Packet.proto;
}

(* The flight recorder: a ring of parallel scalar arrays.  Record [i]
   is [times.(i)], [args.(i)] and [stride] ints from [ints.(stride * i)]:
   its code (a link kind, a router kind, a verdict or a fault), router,
   next, then the packet's uid, src, dst, flow, size, protocol tag and
   the tag's three fields.  A verdict or fault also sets [notes.(i)].
   Recording writes floats and ints into flat arrays: no pointer store,
   no allocation once the arrays have grown.  They grow by doubling up
   to [cap] as the ring first fills, so a probe that records little
   holds little; [next] is where the next record goes. *)
type ring = {
  cap : int;
  mutable times : Float.Array.t;
  mutable args : Float.Array.t;
  mutable ints : int array;
  mutable notes : layer array;  (* [||] until the first verdict or fault *)
  mutable next : int;
  mutable total : int;
}

let stride = 12

let link_code = function
  | Iface.Enqueued -> 0
  | Iface.Drop_congestion -> 1
  | Iface.Drop_red_early -> 2
  | Iface.Drop_link_down -> 3
  | Iface.Drop_corrupted -> 4
  | Iface.Transmit_start -> 5
  | Iface.Delivered -> 6

let node_code = function
  | Router.Malicious_drop -> 7
  | Router.Fragmented -> 8
  | Router.Malicious_modify -> 9
  | Router.Malicious_delay -> 10
  | Router.Fabricated -> 11
  | Router.No_route -> 12
  | Router.Ttl_expired -> 13
  | Router.Delivered_local -> 14

let note_code = 15

let links =
  Iface.[| Enqueued; Drop_congestion; Drop_red_early; Drop_link_down; Drop_corrupted;
           Transmit_start; Delivered |]

let nodes =
  Router.[| Malicious_drop; Fragmented; Malicious_modify; Malicious_delay; Fabricated;
            No_route; Ttl_expired; Delivered_local |]

type t = {
  journal : ring;
  (* Verdicts are rare and load-bearing (the robustness oracle scores
     them after the run), so they are retained here in full even when
     the bounded journal has long since evicted them. *)
  mutable verdicts_rev : verdict list;
  (* Span bridge (optional).  A traced packet's pending per-hop span
     windows live on the packet itself ([Packet.spans]): a packet
     occupies at most one (router, next) edge at a time, and multicast
     clones and fragments have spans of their own, so branches never
     share a window. *)
  tracer : Telemetry.Span.t option;
  named_tracks : (int, unit) Hashtbl.t;
  (* Always-on stats collector (wired by [Net.set_probe]), fed by every
     hook below: the probe's one set of packet counts. *)
  mutable stats : Stats.t option;
  (* Faults count here, not in [stats]: a probe with no network scores
     faults too. *)
  mutable faults : int;
}

(* --- the ring --- *)

let ring cap =
  if cap <= 0 then invalid_arg "Probe.create: journal capacity must be positive";
  { cap; times = Float.Array.create 0; args = Float.Array.create 0; ints = [||];
    notes = [||]; next = 0; total = 0 }

let grow j =
  let len = min j.cap (max 16 (2 * Float.Array.length j.times)) in
  let floats a =
    let a' = Float.Array.make len 0.0 in
    Float.Array.blit a 0 a' 0 (Float.Array.length a);
    a'
  in
  let ints = Array.make (stride * len) 0 in
  Array.blit j.ints 0 ints 0 (Array.length j.ints);
  j.times <- floats j.times;
  j.args <- floats j.args;
  j.ints <- ints;
  if Array.length j.notes > 0 then begin
    let notes = Array.make len (Link Iface.Enqueued) in
    Array.blit j.notes 0 notes 0 (Array.length j.notes);
    j.notes <- notes
  end

(* The slot the next record fills, past the newest: a fresh one while
   the ring is filling, the oldest once it has wrapped. *)
let claim j =
  let i = j.next in
  let i =
    if i < Float.Array.length j.times then i
    else if i < j.cap then begin
      grow j;
      i
    end
    else 0
  in
  j.next <- i + 1;
  j.total <- j.total + 1;
  i

(* [claim] returns a slot below the arrays' length, so the stores need
   no bounds check.  An interface event's [arg] is always [0.] and is
   not stored. *)
let record_view j code (v : _ view) =
  let i = claim j in
  Float.Array.unsafe_set j.times i v.clock.f;
  let ints = j.ints and b = stride * i and p = v.pkt in
  Array.unsafe_set ints b code;
  Array.unsafe_set ints (b + 1) v.router;
  Array.unsafe_set ints (b + 2) v.next;
  Array.unsafe_set ints (b + 3) p.Packet.uid;
  Array.unsafe_set ints (b + 4) p.Packet.src;
  Array.unsafe_set ints (b + 5) p.Packet.dst;
  Array.unsafe_set ints (b + 6) p.Packet.flow;
  Array.unsafe_set ints (b + 7) p.Packet.size;
  (match p.Packet.proto with
  | Packet.Udp -> Array.unsafe_set ints (b + 8) 0
  | Packet.Tcp h ->
      Array.unsafe_set ints (b + 8) 1;
      Array.unsafe_set ints (b + 9) h.Packet.seq;
      Array.unsafe_set ints (b + 10) h.Packet.ack;
      Array.unsafe_set ints (b + 11)
        ((if h.Packet.syn then 2 else 0) lor if h.Packet.fin then 1 else 0)
  | Packet.Ping seq ->
      Array.unsafe_set ints (b + 8) 2;
      Array.unsafe_set ints (b + 9) seq
  | Packet.Pong seq ->
      Array.unsafe_set ints (b + 8) 3;
      Array.unsafe_set ints (b + 9) seq);
  i

(* A verdict or fault entry rides in the same ring, so the journal
   keeps the order of all three layers. *)
let record_note j ~time note =
  if Array.length j.notes = 0 then
    j.notes <- Array.make (max 1 (Float.Array.length j.times)) (Link Iface.Enqueued);
  let i = claim j in
  Float.Array.set j.times i time;
  j.ints.(stride * i) <- note_code;
  j.notes.(i) <- note

let proto_at ints b =
  match ints.(b + 8) with
  | 0 -> Packet.Udp
  | 1 ->
      let flags = ints.(b + 11) in
      Packet.Tcp
        { Packet.seq = ints.(b + 9); ack = ints.(b + 10); syn = flags land 2 <> 0;
          fin = flags land 1 <> 0 }
  | 2 -> Packet.Ping ints.(b + 9)
  | _ -> Packet.Pong ints.(b + 9)

let entry_at j i =
  let ints = j.ints and b = stride * i in
  let code = ints.(b) and at = Float.Array.get j.times i in
  if code = note_code then
    { at; arg = 0.0; layer = j.notes.(i); router = -1; next = -1; uid = 0; src = 0;
      dst = 0; flow = 0; size = 0; proto = Packet.Udp }
  else
    { at; arg = (if code < 7 then 0.0 else Float.Array.get j.args i);
      layer = (if code < 7 then Link links.(code) else Node nodes.(code - 7));
      router = ints.(b + 1); next = ints.(b + 2); uid = ints.(b + 3); src = ints.(b + 4);
      dst = ints.(b + 5); flow = ints.(b + 6); size = ints.(b + 7); proto = proto_at ints b }

let entry_of_view layer (v : _ view) =
  let p = v.pkt in
  { at = v.clock.f; arg = v.arg; layer; router = v.router; next = v.next;
    uid = p.Packet.uid; src = p.Packet.src; dst = p.Packet.dst; flow = p.Packet.flow;
    size = p.Packet.size; proto = p.Packet.proto }

(* The retained records, oldest first: once the ring has wrapped the
   oldest is the slot past the newest. *)
let entries j =
  let n = min j.total j.cap in
  let first = if j.total <= j.cap then 0 else j.next mod j.cap in
  List.init n (fun k -> entry_at j ((first + k) mod j.cap))

let create ?(journal_capacity = 65536) ?tracer () =
  { journal = ring journal_capacity;
    verdicts_rev = [];
    tracer;
    named_tracks = Hashtbl.create 16;
    stats = None;
    faults = 0 }

let journal t =
  Telemetry.Journal.of_retained ~capacity:t.journal.cap ~total:t.journal.total
    (entries t.journal)
let set_stats t stats = t.stats <- stats
let stats t = t.stats

(* Name the (netsim, router) track on first use. *)
let net_track t sp router =
  if not (Hashtbl.mem t.named_tracks router) then begin
    Hashtbl.add t.named_tracks router ();
    Telemetry.Span.set_thread sp ~pid:Telemetry.Span.network_pid ~tid:router
      (Printf.sprintf "r%d" router)
  end;
  router

let on_originate t (pkt : Packet.t) =
  (match t.stats with Some st -> Stats.on_originate st pkt | None -> ());
  match t.tracer with
  | None -> ()
  | Some sp -> (
      match Telemetry.Span.new_trace sp with
      | None -> ()
      | Some trace ->
          Packet.set_trace pkt trace;
          let tid = net_track t sp pkt.Packet.src in
          ignore
            (Telemetry.Span.instant sp ~trace ~name:"originate" ~cat:"packet"
               ~pid:Telemetry.Span.network_pid ~tid ~time:pkt.Packet.created.f
               ~routers:[ pkt.Packet.src ]
               ~args:
                 [ ("pkt", Telemetry.Export.Int pkt.Packet.uid);
                   ("dst", Telemetry.Export.Int pkt.Packet.dst);
                   ("flow", Telemetry.Export.Int pkt.Packet.flow);
                   ("size", Telemetry.Export.Int pkt.Packet.size) ]
               ()))

(* Per-hop spans for a traced packet: enqueue->transmit ("queue") then
   transmit->deliver ("transmit"); drops become instants and clear any
   pending window so the tables never leak.  Drop instants are recorded
   for {e every} packet, traced or not: benign congestion / RED / link
   losses are exactly the anomalies the robustness oracle and
   [mrdetect trace explain] must tell apart from malice, so they never
   ride on the sampling coin — only the routine hop spans do. *)
let trace_iface t sp (v : iface_view) =
  let pkt = v.pkt and time = v.clock.f and router = v.router and next = v.next in
  let trace = pkt.Packet.trace and spans = pkt.Packet.spans in
  let pid = Telemetry.Span.network_pid in
  let pkt_args () =
    [ ("pkt", Telemetry.Export.Int pkt.Packet.uid);
      ("next", Telemetry.Export.Int next) ]
  in
  let drop cause =
    let tid = net_track t sp router in
    spans.q_start <- -1.0;
    spans.tx_start <- -1.0;
    ignore
      (Telemetry.Span.instant sp
         ?trace:(if trace <> 0 then Some trace else None)
         ~name:("drop " ^ cause) ~cat:"drop" ~pid ~tid ~time
         ~routers:[ router; next ]
         ~args:(("cause", Telemetry.Export.String cause) :: pkt_args ())
         ())
  in
  match v.kind with
  | Iface.Drop_congestion -> drop "congestion"
  | Iface.Drop_red_early -> drop "red_early"
  | Iface.Drop_link_down -> drop "link_down"
  | Iface.Drop_corrupted -> drop "corrupted"
  | Iface.Enqueued | Iface.Transmit_start | Iface.Delivered when trace = 0 -> ()
  | Iface.Enqueued -> spans.q_start <- time
  | Iface.Transmit_start ->
      let tid = net_track t sp router in
      let start = spans.q_start in
      if start >= 0.0 then begin
        spans.q_start <- -1.0;
        ignore
          (Telemetry.Span.hop_span sp ~trace ~name:"queue" ~pid ~tid ~start
             ~finish:time ~router ~next ~pkt:pkt.Packet.uid)
      end;
      spans.tx_start <- time
  | Iface.Delivered ->
      let tid = net_track t sp router in
      let start = spans.tx_start in
      if start >= 0.0 then begin
        spans.tx_start <- -1.0;
        ignore
          (Telemetry.Span.hop_span sp ~trace ~name:"transmit" ~pid ~tid ~start
             ~finish:time ~router ~next ~pkt:pkt.Packet.uid)
      end

let on_iface t (v : iface_view) =
  (match t.stats with
  | Some st -> Stats.on_iface st ~clock:v.clock ~router:v.router v.kind
  | None -> ());
  ignore (record_view t.journal (link_code v.kind) v : int);
  match t.tracer with Some sp -> trace_iface t sp v | None -> ()

let trace_router t sp (v : router_view) =
  let pkt = v.pkt and time = v.clock.f and router = v.router in
  let trace = pkt.Packet.trace in
  let name, cat =
    match v.kind with
    | Router.Malicious_drop -> ("malicious drop", "malice")
    | Router.Malicious_modify -> ("malicious modify", "malice")
    | Router.Malicious_delay -> ("malicious delay", "malice")
    | Router.Fabricated -> ("fabricate", "malice")
    | Router.Fragmented -> ("fragment", "hop")
    | Router.No_route -> ("drop no_route", "drop")
    | Router.Ttl_expired -> ("drop ttl_expired", "drop")
    | Router.Delivered_local -> ("deliver", "packet")
  in
  (* Anomalies (malice and drops) are always recorded; routine
     hop/delivery events only for sampled packets. *)
  if trace <> 0 || cat = "malice" || cat = "drop" then begin
    let pid = Telemetry.Span.network_pid in
    let tid = net_track t sp router in
    let args =
      ("pkt", Telemetry.Export.Int pkt.Packet.uid)
      ::
      (match v.kind with
      | Router.Delivered_local ->
          [ ("latency", Telemetry.Export.Float (time -. pkt.Packet.created.f)) ]
      | Router.Malicious_delay -> [ ("delay", Telemetry.Export.Float v.arg) ]
      | Router.Fragmented -> [ ("fragments", Telemetry.Export.Int (int_of_float v.arg)) ]
      | _ -> [])
    in
    ignore
      (Telemetry.Span.instant sp
         ?trace:(if trace <> 0 then Some trace else None)
         ~name ~cat ~pid ~tid ~time ~routers:[ router ] ~args ())
  end

let on_router t (v : router_view) =
  (match t.stats with
  | Some st -> Stats.on_router st ~clock:v.clock ~router:v.router v.kind v.pkt v.arg
  | None -> ());
  let i = record_view t.journal (node_code v.kind) v in
  Float.Array.unsafe_set t.journal.args i v.arg;
  match t.tracer with Some sp -> trace_router t sp v | None -> ()

let record_verdict t ~time ~detector ?subject ?(suspects = []) ?confidence ~alarm
    ?(detail = "") ?(evidence = []) () =
  let v =
    { Telemetry.Span.time; detector; subject; suspects; confidence; alarm; detail;
      evidence }
  in
  t.verdicts_rev <- v :: t.verdicts_rev;
  (match t.stats with
  | Some st -> Stats.on_verdict st ~time ~detector ~alarm
  | None -> ());
  record_note t.journal ~time (Verdict v);
  match t.tracer with
  | None -> ()
  | Some sp -> ignore (Telemetry.Span.verdict sp v)

let verdicts t = List.rev t.verdicts_rev

let first_alarm_time t =
  List.find_opt (fun (v : verdict) -> v.alarm) (verdicts t)
  |> Option.map (fun (v : verdict) -> v.time)
let faults_recorded t = t.faults

let record_fault t ~time ~kind ?(routers = []) ?(detail = "") () =
  t.faults <- t.faults + 1;
  (match t.stats with Some st -> Stats.on_fault st ~time | None -> ());
  record_note t.journal ~time (Fault { time; kind; routers; detail });
  match t.tracer with
  | None -> ()
  | Some sp ->
      let pid = Telemetry.Span.detector_pid in
      let tid = Telemetry.Span.thread sp ~pid "faults" in
      let args =
        ("kind", Telemetry.Export.String kind)
        :: (if detail = "" then []
            else [ ("detail", Telemetry.Export.String detail) ])
      in
      ignore
        (Telemetry.Span.instant sp ~name:("fault " ^ kind) ~cat:"fault" ~pid ~tid
           ~time ~routers ~args ())

(* Detector-side span helpers: record on the "detectors" process, one
   track per [track] name.  No-ops (returning [None]) without a tracer,
   so protocol code can call them unconditionally. *)

let trace_span t ~track ~name ?cat ~start ~finish ?routers ?args () =
  (* Round spans double as the always-on round-duration samples: the
     stats feed runs with or without a tracer attached. *)
  (match (t.stats, cat) with
  | Some st, Some "round" -> Stats.on_round st ~track ~start ~finish
  | _ -> ());
  match t.tracer with
  | None -> None
  | Some sp ->
      let pid = Telemetry.Span.detector_pid in
      let tid = Telemetry.Span.thread sp ~pid track in
      Some
        (Telemetry.Span.span sp ~name ?cat ~pid ~tid ~start ~finish ?routers ?args
           ())

let trace_instant t ~track ~name ?cat ~time ?routers ?args () =
  match t.tracer with
  | None -> None
  | Some sp ->
      let pid = Telemetry.Span.detector_pid in
      let tid = Telemetry.Span.thread sp ~pid track in
      Some (Telemetry.Span.instant sp ~name ?cat ~pid ~tid ~time ?routers ?args ())

(* --- conservation --- *)

type conservation = {
  total_injected : int;   (* originate + fabricate + fragments *)
  total_delivered : int;
  total_dropped : int;    (* all causes *)
  total_fragmented : int; (* originals replaced by fragments *)
  in_flight : int;
}

let conservation t =
  match t.stats with
  | None ->
      { total_injected = 0; total_delivered = 0; total_dropped = 0;
        total_fragmented = 0; in_flight = 0 }
  | Some st ->
      let total = Telemetry.Timeseries.total_count in
      let total_injected =
        total (Stats.injected st) + Stats.fabricated st + Stats.fragments_created st
      in
      let total_delivered = total (Stats.delivered st) in
      let total_dropped = total (Stats.dropped st) in
      let total_fragmented = Stats.fragmented st in
      { total_injected; total_delivered; total_dropped; total_fragmented;
        in_flight =
          total_injected - total_delivered - total_dropped - total_fragmented }

(* --- formatting: one renderer over the entry --- *)

let link_name = function
  | Iface.Enqueued -> "enqueue"
  | Iface.Drop_congestion -> "DROP-congestion"
  | Iface.Drop_red_early -> "DROP-red"
  | Iface.Drop_link_down -> "DROP-link-down"
  | Iface.Drop_corrupted -> "DROP-corrupted"
  | Iface.Transmit_start -> "transmit"
  | Iface.Delivered -> "deliver"

let node_name e kind =
  match kind with
  | Router.Malicious_drop -> "MALICIOUS-drop"
  | Router.Malicious_modify -> "MALICIOUS-modify"
  | Router.Malicious_delay -> Printf.sprintf "MALICIOUS-delay(%.3fs)" e.arg
  | Router.Fabricated -> "MALICIOUS-fabricate"
  | Router.Fragmented -> Printf.sprintf "fragment(x%d)" (int_of_float e.arg)
  | Router.No_route -> "no-route"
  | Router.Ttl_expired -> "ttl-expired"
  | Router.Delivered_local -> "local-deliver"

let describe_packet e =
  let proto =
    match e.proto with
    | Packet.Udp -> "udp"
    | Packet.Tcp h ->
        Printf.sprintf "tcp seq=%d ack=%d%s%s" h.Packet.seq h.Packet.ack
          (if h.Packet.syn then " SYN" else "")
          (if h.Packet.fin then " FIN" else "")
    | Packet.Ping s -> Printf.sprintf "ping %d" s
    | Packet.Pong s -> Printf.sprintf "pong %d" s
  in
  Printf.sprintf "#%d %d->%d flow=%d %dB %s" e.uid e.src e.dst e.flow e.size proto

let describe e =
  match e.layer with
  | Link kind ->
      Printf.sprintf "%.4f r%d->r%d %s %s" e.at e.router e.next (link_name kind)
        (describe_packet e)
  | Node kind ->
      Printf.sprintf "%.4f r%d %s %s" e.at e.router (node_name e kind) (describe_packet e)
  | Verdict { time; detector; suspects; alarm; _ } ->
      Printf.sprintf "%.4f %s %s%s" time detector
        (if alarm then "ALARM" else "verdict")
        (match suspects with
        | [] -> ""
        | s -> " suspects=" ^ String.concat "," (List.map string_of_int s))
  | Fault { time; kind; routers; detail } ->
      Printf.sprintf "%.4f FAULT-%s%s%s" time kind
        (match routers with
        | [] -> ""
        | rs -> " r" ^ String.concat ",r" (List.map string_of_int rs))
        (if detail = "" then "" else " " ^ detail)

let describe_iface (v : iface_view) = describe (entry_of_view (Link v.kind) v)
let describe_router (v : router_view) = describe (entry_of_view (Node v.kind) v)

(* --- JSONL export --- *)

let json_of_entry e =
  let open Telemetry.Export in
  let pkt () =
    [ ( "pkt",
        Assoc
          [ ("uid", Int e.uid); ("src", Int e.src); ("dst", Int e.dst);
            ("flow", Int e.flow); ("size", Int e.size) ] ) ]
  in
  let fields =
    match e.layer with
    | Link kind ->
        [ ("event", String (link_name kind));
          ("layer", String "link");
          ("router", Int e.router);
          ("next", Int e.next) ]
        @ pkt ()
    | Node kind ->
        [ ("event", String (node_name e kind));
          ("layer", String "router");
          ("router", Int e.router) ]
        @ pkt ()
    | Verdict { detector; subject; suspects; confidence; alarm; detail; _ } ->
        [ ("event", String "verdict");
          ("layer", String "detector");
          ("detector", String detector) ]
        @ (match subject with Some s -> [ ("router", Int s) ] | None -> [])
        @ [ ("suspects", List (List.map (fun s -> Int s) suspects)) ]
        @ (match confidence with
          | Some c -> [ ("confidence", Float c) ]
          | None -> [])
        @ [ ("alarm", Bool alarm) ]
        @ (if detail = "" then [] else [ ("detail", String detail) ])
    | Fault { kind; routers; detail; _ } ->
        [ ("event", String ("fault-" ^ kind));
          ("layer", String "fault");
          ("routers", List (List.map (fun r -> Int r) routers)) ]
        @ if detail = "" then [] else [ ("detail", String detail) ]
  in
  Assoc (("time", Float e.at) :: fields)

let write_journal t oc =
  List.iter
    (fun e ->
      Telemetry.Export.to_channel oc (json_of_entry e);
      output_char oc '\n')
    (entries t.journal)
