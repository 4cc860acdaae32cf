open Netsim

(* [prev] is [-1] for a packet the router originated itself. *)
let transit_only behavior : Router.behavior =
 fun ctx pkt -> if ctx.Router.prev >= 0 then behavior ctx pkt else Router.Forward

let after t behavior : Router.behavior =
 fun ctx pkt -> if ctx.Router.clock.Sim.f >= t then behavior ctx pkt else Router.Forward

let on_flows flows behavior : Router.behavior =
 fun ctx pkt ->
  if List.mem pkt.Packet.flow flows then behavior ctx pkt else Router.Forward

let drop_all = transit_only (fun _ _ -> Router.Drop)

(* A behaviour builds its coin key once; the coin itself runs per packet
   and allocates nothing: the hash's top 53 bits come back as an int,
   which converts to the same float as the int64 they were cut from. *)
let coin_key seed = Crypto_sim.Siphash.key_of_ints (Int64.of_int seed) 0xadfeL

let coin key ~fraction pkt =
  let u =
    float_of_int (Crypto_sim.Siphash.hash_int_bits key pkt.Packet.uid)
    /. 9.007199254740992e15
  in
  u < fraction

let drop_fraction ?(seed = 1) fraction =
  let key = coin_key seed in
  transit_only (fun _ pkt -> if coin key ~fraction pkt then Router.Drop else Router.Forward)

let drop_when_queue_above frac =
  transit_only (fun ctx _ ->
      if float_of_int ctx.Router.queue_occupancy
         >= frac *. float_of_int ctx.Router.queue_limit
      then Router.Drop
      else Router.Forward)

let drop_when_red_avg_above bytes =
  transit_only (fun ctx _ ->
      match ctx.Router.red with
      | Some red when Red.avg red > bytes -> Router.Drop
      | Some _ | None -> Router.Forward)

let drop_fraction_when_red_avg_above ?(seed = 1) ~fraction ~avg () =
  let key = coin_key seed in
  transit_only (fun ctx pkt ->
      match ctx.Router.red with
      | Some red when Red.avg red > avg && coin key ~fraction pkt -> Router.Drop
      | Some _ | None -> Router.Forward)

let drop_syn =
  transit_only (fun _ pkt -> if Packet.is_syn pkt then Router.Drop else Router.Forward)

(* One action for every modified packet: the router XORs its mask into
   the payload in place. *)
let modify = Router.Modify 0x6d616c6963656421L

let modify_fraction ?(seed = 1) fraction =
  let key = coin_key seed in
  transit_only (fun _ pkt -> if coin key ~fraction pkt then modify else Router.Forward)

let delay_fraction ?(seed = 1) ~delay fraction =
  let key = coin_key seed in
  transit_only (fun _ pkt ->
      if coin key ~fraction pkt then Router.Delay delay else Router.Forward)
