type verdict = {
  suspected : (int * int) option;
  sampled_per_router : int;
}

let pair_sampler ~seed ~fraction i j =
  let key = Crypto_sim.Siphash.key_of_string (Printf.sprintf "%s|sats|%d|%d" seed i j) in
  Crypto_sim.Sampling.create ~key ~fraction

let evading_dropper ~rate ~position =
  let key = Crypto_sim.Siphash.key_of_string "sats-dropper" in
  fun ~position:p ~fp ->
    p = position
    && begin
         let h = Crypto_sim.Siphash.hash_int64s key [ fp ] in
         let u = Int64.to_float (Int64.shift_right_logical h 11) /. 9.007199254740992e15 in
         u < rate
       end

let run ~path_len ~packets ~fraction ~drops ?(ranges_leaked = false) () =
  let seed = "sats" in
  if path_len < 3 then invalid_arg "Sats.run: path needs a transit router";
  if packets <= 0 then invalid_arg "Sats.run: need traffic";
  let fps = Array.init packets (fun i -> Crypto_sim.Fnv.hash_int i) in
  let samplers =
    (* One secret range per ordered pair (i, j), i < j. *)
    Array.init path_len (fun i ->
        Array.init path_len (fun j ->
            if i < j then Some (pair_sampler ~seed ~fraction i j) else None))
  in
  let sampled_by_someone fp =
    Array.exists
      (fun row ->
        Array.exists
          (function Some s -> Crypto_sim.Sampling.selects s fp | None -> false)
          row)
      samplers
  in
  (* obs.(i) = the packets reaching position i. *)
  let obs = Array.make path_len [] in
  obs.(0) <- Array.to_list fps;
  for i = 1 to path_len - 1 do
    let arriving = obs.(i - 1) in
    if i = path_len - 1 then obs.(i) <- arriving
    else
      obs.(i) <-
        List.filter
          (fun fp ->
            let evades = ranges_leaked && sampled_by_someone fp in
            evades || not (drops ~position:i ~fp))
          arriving
  done;
  let membership i =
    let h = Hashtbl.create 64 in
    List.iter (fun fp -> Hashtbl.replace h fp ()) obs.(i);
    h
  in
  let tables = Array.init path_len membership in
  (* Backend comparison: shortest inconsistent pair wins. *)
  let inconsistent i j =
    match samplers.(i).(j) with
    | None -> false
    | Some s ->
        List.exists
          (fun fp -> Crypto_sim.Sampling.selects s fp && not (Hashtbl.mem tables.(j) fp))
          obs.(i)
  in
  let suspected = ref None in
  (try
     for width = 1 to path_len - 1 do
       for i = 0 to path_len - 1 - width do
         if inconsistent i (i + width) then begin
           suspected := Some (i, i + width);
           raise Exit
         end
       done
     done
   with Exit -> ());
  let sampled_per_router =
    (* Router 0's report volume across its assigned ranges. *)
    let count = ref 0 in
    for j = 1 to path_len - 1 do
      match samplers.(0).(j) with
      | Some s ->
          List.iter (fun fp -> if Crypto_sim.Sampling.selects s fp then incr count) obs.(0)
      | None -> ()
    done;
    !count
  in
  { suspected = !suspected; sampled_per_router }
