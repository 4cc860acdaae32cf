(* Tests for crypto_sim: FNV, SipHash-2-4 (against the reference vectors),
   the simulated signing keys, and hash-range sampling. *)

open Crypto_sim

(* --- FNV --- *)

let test_fnv_known () =
  (* Standard FNV-1a 64 test vectors. *)
  Alcotest.(check int64) "empty" 0xcbf29ce484222325L (Fnv.hash_string "");
  Alcotest.(check int64) "a" 0xaf63dc4c8601ec8cL (Fnv.hash_string "a");
  Alcotest.(check int64) "foobar" 0x85944171f73967e8L (Fnv.hash_string "foobar")

let test_fnv_int64_consistent () =
  (* hash_int64 agrees with hashing the 8 little-endian bytes. *)
  let x = 0x0123456789abcdefL in
  let bytes = Bytes.create 8 in
  for i = 0 to 7 do
    Bytes.set bytes i
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical x (8 * i)) 0xffL)))
  done;
  Alcotest.(check int64) "bytes agree" (Fnv.hash_string (Bytes.to_string bytes))
    (Fnv.hash_int64 x)

(* [hash_int] hashes the bytes of [Int64.of_int], sign extension
   included. *)
let test_fnv_int_edges () =
  List.iter
    (fun i ->
      Alcotest.(check int64) (string_of_int i) (Fnv.hash_int64 (Int64.of_int i)) (Fnv.hash_int i))
    [ 0; 1; -1; 255; 256; max_int; min_int; -0x5eed ]

(* --- SipHash --- *)

(* Reference vectors from the SipHash paper / reference implementation:
   key = 00 01 .. 0f, message = first n bytes of 00 01 02 ... *)
let reference_key = Siphash.key_of_ints 0x0706050403020100L 0x0f0e0d0c0b0a0908L

let reference_vectors =
  [ (0, 0x726fdb47dd0e0e31L);
    (1, 0x74f839c593dc67fdL);
    (2, 0x0d6c8009d9a94f5aL);
    (3, 0x85676696d7fb7e2dL);
    (4, 0xcf2794e0277187b7L);
    (5, 0x18765564cd99a68dL);
    (6, 0xcbc9466e58fee3ceL);
    (7, 0xab0200f58b01d137L);
    (8, 0x93f5f5799a932462L);
    (15, 0xa129ca6149be45e5L);
    (16, 0x3f2acc7f57c29bdbL) ]

let test_siphash_vectors () =
  List.iter
    (fun (n, expected) ->
      let msg = String.init n Char.chr in
      Alcotest.(check int64)
        (Printf.sprintf "siphash len %d" n)
        expected (Siphash.hash reference_key msg))
    reference_vectors

let test_siphash_key_sensitivity () =
  let k2 = Siphash.key_of_ints 0x0706050403020100L 0x0f0e0d0c0b0a0909L in
  Alcotest.(check bool) "different key, different hash" true
    (Siphash.hash reference_key "hello" <> Siphash.hash k2 "hello")

let test_siphash_int64s_deterministic () =
  let h1 = Siphash.hash_int64s reference_key [ 1L; 2L; 3L ] in
  let h2 = Siphash.hash_int64s reference_key [ 1L; 2L; 3L ] in
  let h3 = Siphash.hash_int64s reference_key [ 1L; 3L; 2L ] in
  Alcotest.(check int64) "deterministic" h1 h2;
  Alcotest.(check bool) "order matters" true (h1 <> h3);
  Alcotest.check_raises "tail outside [0,4]"
    (Invalid_argument "Siphash.hash_fields: tail outside [0,4]") (fun () ->
      ignore
        (Siphash.hash_fields reference_key 1 2 3 4 5 (Bytes.make 8 '\006') 0 ~tail:5 7 8 9 10
           Bytes.empty 0))

let test_key_of_string_stable () =
  let k1 = Siphash.key_of_string "router-7" in
  let k2 = Siphash.key_of_string "router-7" in
  Alcotest.(check bool) "stable" true (Siphash.hash k1 "x" = Siphash.hash k2 "x");
  let k3 = Siphash.key_of_string "router-8" in
  Alcotest.(check bool) "distinct" true (Siphash.hash k1 "x" <> Siphash.hash k3 "x")

(* --- Keyring --- *)

let ring = Keyring.create ~n:8 ()

let words = [ 77L; 12L ]

let test_sign_verify () =
  let tag = Keyring.sign_words ring ~signer:3 words in
  Alcotest.(check bool) "verifies" true (Keyring.verify_words ring ~signer:3 words tag);
  Alcotest.(check bool) "wrong message rejected" false
    (Keyring.verify_words ring ~signer:3 [ 77L; 13L ] tag);
  Alcotest.(check bool) "wrong signer rejected" false
    (Keyring.verify_words ring ~signer:4 words tag);
  Alcotest.(check bool) "forge rejected" false
    (Keyring.verify_words ring ~signer:3 words Keyring.forge_attempt)

let test_sign_words () =
  let tag = Keyring.sign_words ring ~signer:1 words in
  Alcotest.(check bool) "verifies" true (Keyring.verify_words ring ~signer:1 words tag);
  Alcotest.(check bool) "reordered rejected" false
    (Keyring.verify_words ring ~signer:1 (List.rev words) tag)

let test_keyring_bounds () =
  Alcotest.check_raises "out of range"
    (Invalid_argument "Keyring.signing_key: router id 9 outside [0,8)")
    (fun () -> ignore (Keyring.sign_words ring ~signer:9 words))

let test_keyring_determinism_across_instances () =
  let sign ring = (Keyring.sign_words ring ~signer:2 words :> int64) in
  Alcotest.(check int64) "same seed, same keys" (sign ring) (sign (Keyring.create ~n:8 ()));
  Alcotest.(check bool) "different seed, different keys" true
    (not (Int64.equal (sign ring) (sign (Keyring.create ~seed:"other" ~n:8 ()))))

(* --- Sampling --- *)

let test_sampling_all () =
  let all = Sampling.create ~key:(Siphash.key_of_string "all") ~fraction:1.0 in
  for i = 0 to 100 do
    if not (Sampling.selects all (Int64.of_int i)) then
      Alcotest.fail "all sampler must select everything"
  done

let test_sampling_fraction () =
  (* Fractions above 1/2 put the unsigned threshold at or above 2^63,
     past what Int64.of_float can represent. *)
  let key = Siphash.key_of_string "sampler" in
  let n = 200_000 in
  List.iter
    (fun fraction ->
      let s = Sampling.create ~key ~fraction in
      let selected = ref 0 in
      for i = 1 to n do
        if Sampling.selects s (Int64.of_int (i * 7919)) then incr selected
      done;
      let freq = float_of_int !selected /. float_of_int n in
      if Float.abs (freq -. fraction) > 0.01 then
        Alcotest.failf "sampling frequency %.4f too far from %.2f" freq fraction)
    [ 0.25; 0.6; 0.75; 0.99 ]

let test_sampling_agreement () =
  (* Both ends of a path-segment with the same key pick the same subset:
     the property Πk+2 subsampling relies on (§5.2.1). *)
  let key = Siphash.key_of_string "shared" in
  let s1 = Sampling.create ~key ~fraction:0.5 in
  let s2 = Sampling.create ~key ~fraction:0.5 in
  for i = 0 to 1000 do
    let fp = Int64.of_int (i * 104729) in
    Alcotest.(check bool) "agree" (Sampling.selects s1 fp) (Sampling.selects s2 fp)
  done

let test_sampling_zero () =
  let key = Siphash.key_of_string "zero" in
  let s = Sampling.create ~key ~fraction:0.0 in
  let any = ref false in
  for i = 0 to 1000 do
    if Sampling.selects s (Int64.of_int i) then any := true
  done;
  Alcotest.(check bool) "selects none" false !any

(* properties *)

let prop_siphash_deterministic =
  QCheck.Test.make ~name:"siphash deterministic" ~count:300 QCheck.string (fun s ->
      Siphash.hash reference_key s = Siphash.hash reference_key s)

let prop_siphash_no_trivial_collision =
  QCheck.Test.make ~name:"distinct strings rarely collide" ~count:300
    QCheck.(pair string string)
    (fun (a, b) -> a = b || Siphash.hash reference_key a <> Siphash.hash reference_key b)

let prop_fnv_hash_int =
  QCheck.Test.make ~name:"Fnv.hash_int i = hash_int64 (Int64.of_int i)" ~count:1000
    (QCheck.make ~print:string_of_int
       QCheck.Gen.(oneof [ int; neg_int; small_signed_int; oneofl [ 0; max_int; min_int ] ]))
    (fun i -> Fnv.hash_int i = Fnv.hash_int64 (Int64.of_int i))

(* Differential properties: the word entry points agree with the byte
   entry point, which the reference vectors pin. *)
let le_concat words =
  let b = Bytes.create (8 * List.length words) in
  List.iteri (fun i w -> Bytes.set_int64_le b (8 * i) w) words;
  Bytes.to_string b

let prop_int64s_match_bytes =
  QCheck.Test.make ~name:"hash_int64s = hash of little-endian words" ~count:500
    QCheck.(list_of_size Gen.(0 -- 12) int64)
    (fun words ->
      Siphash.hash_int64s reference_key words = Siphash.hash reference_key (le_concat words))

(* The adversary's coin hashes one int: bit-identical to the list form,
   sign extension included. *)
let prop_hash_int_matches_int64s =
  QCheck.Test.make ~name:"hash_int x = hash_int64s [Int64.of_int x]" ~count:1000
    (QCheck.make ~print:string_of_int
       QCheck.Gen.(oneof [ int; neg_int; small_signed_int; oneofl [ 0; -1; max_int; min_int ] ]))
    (fun x ->
      Siphash.hash_int reference_key x = Siphash.hash_int64s reference_key [ Int64.of_int x ])

(* The packet fingerprint wire format, written out word by word: uid,
   src, dst, flow, size, payload, then the protocol tag and its fields
   (Tcp's flags word is syn * 2 + fin).  Fingerprint values order Byz
   pruning and feed every golden digest, so this format must not move. *)
let prop_fingerprint_tuple =
  QCheck.Test.make ~name:"Packet.fingerprint = hash_int64s of its tuple" ~count:1000
    QCheck.(pair (quad int int int int) (quad (int_range 1 max_int) int64 (int_bound 6) (pair int int)))
    (fun ((uid, src, dst, flow), (size, payload, kind, (seq, ack))) ->
      let tcp ~syn ~fin flags =
        ( Netsim.Packet.Tcp { seq; ack; syn; fin },
          [ 1L; Int64.of_int seq; Int64.of_int ack; flags ] )
      in
      let proto, proto_words =
        match kind with
        | 0 -> (Netsim.Packet.Udp, [ 0L ])
        | 1 -> tcp ~syn:false ~fin:false 0L
        | 2 -> tcp ~syn:false ~fin:true 1L
        | 3 -> tcp ~syn:true ~fin:false 2L
        | 4 -> tcp ~syn:true ~fin:true 3L
        | 5 -> (Netsim.Packet.Ping seq, [ 2L; Int64.of_int seq ])
        | _ -> (Netsim.Packet.Pong seq, [ 3L; Int64.of_int seq ])
      in
      let clock = { Netsim.Sim.f = 0.0 } in
      let p = Netsim.Packet.make_at ~clock ~uid ~src ~dst ~flow ~size proto in
      Netsim.Packet.set_payload p payload;
      let tuple =
        [ Int64.of_int uid; Int64.of_int src; Int64.of_int dst; Int64.of_int flow;
          Int64.of_int size; payload ]
        @ proto_words
      in
      Netsim.Packet.fingerprint reference_key p = Siphash.hash_int64s reference_key tuple)

(* The hop path's in-place fingerprint is the fingerprint, for every
   protocol, before and after a modification attack flips payload bits
   ([Router.Modify] XORs its mask in with [Packet.xor_payload]), at any
   offset of the caller's buffer. *)
let prop_fingerprint_into =
  QCheck.Test.make ~name:"Packet.fingerprint_into = Packet.fingerprint, before and after a Modify"
    ~count:1000
    QCheck.(triple (quad int int int int) (quad (int_range 1 max_int) int64 (int_bound 6) (pair int int))
              (pair int64 (int_bound 16)))
    (fun ((uid, src, dst, flow), (size, payload, kind, (seq, ack)), (mask, off)) ->
      let proto =
        match kind with
        | 0 -> Netsim.Packet.Udp
        | 5 -> Netsim.Packet.Ping seq
        | 6 -> Netsim.Packet.Pong seq
        | k -> Netsim.Packet.Tcp { seq; ack; syn = k > 2; fin = k mod 2 = 0 }
      in
      let p = Netsim.Packet.make_at ~clock:{ Netsim.Sim.f = 0.0 } ~uid ~src ~dst ~flow ~size proto in
      Netsim.Packet.set_payload p payload;
      let buf = Bytes.create 24 in
      let agree () =
        Netsim.Packet.fingerprint_into reference_key p buf off;
        Bytes.get_int64_ne buf off = Netsim.Packet.fingerprint reference_key p
      in
      let before = agree () in
      Netsim.Packet.xor_payload p mask;
      before && agree () && Netsim.Packet.payload p = Int64.logxor payload mask)

(* A packet keeps its last fingerprint and the key it was taken under.
   The cache must never answer for content it was not taken from: a
   packet goes through every writer of a fingerprinted field (payload
   set and XOR, a pool recycle under poison, a clone modified apart
   from its original) and a TTL rewrite, which must leave it standing,
   while the key alternates between two.  At every step both forms of
   the fingerprint equal the digest of the packet's content taken from
   scratch, the tuple hash of [prop_fingerprint_tuple]. *)
type memo_op =
  | Set_payload of int64
  | Xor_payload of int64
  | Recycle of int * int * int
  | Clone_modify of int64
  | Spend_ttl

let memo_keys = [| reference_key; Siphash.key_of_string "the other key" |]

let scratch_digest key (p : Netsim.Packet.t) =
  let proto_words =
    match p.Netsim.Packet.proto with
    | Netsim.Packet.Udp -> [ 0L ]
    | Netsim.Packet.Tcp { seq; ack; syn; fin } ->
        [ 1L; Int64.of_int seq; Int64.of_int ack;
          Int64.of_int ((if syn then 2 else 0) lor if fin then 1 else 0) ]
    | Netsim.Packet.Ping s -> [ 2L; Int64.of_int s ]
    | Netsim.Packet.Pong s -> [ 3L; Int64.of_int s ]
  in
  Siphash.hash_int64s key
    ([ Int64.of_int p.Netsim.Packet.uid; Int64.of_int p.Netsim.Packet.src;
       Int64.of_int p.Netsim.Packet.dst; Int64.of_int p.Netsim.Packet.flow;
       Int64.of_int p.Netsim.Packet.size; Netsim.Packet.payload p ]
    @ proto_words)

let memo_agrees key p buf =
  let want = scratch_digest key p in
  Netsim.Packet.fingerprint_into key p buf 8;
  Bytes.get_int64_ne buf 8 = want && Netsim.Packet.fingerprint key p = want

let prop_fingerprint_memo =
  let op =
    QCheck.Gen.(
      frequency
        [ (3, map (fun w -> Set_payload w) ui64);
          (3, map (fun w -> Xor_payload w) ui64);
          (2, map3 (fun uid src size -> Recycle (uid, src, size)) nat small_nat (1 -- 1500));
          (2, map (fun w -> Clone_modify w) ui64);
          (1, return Spend_ttl) ])
  in
  QCheck.Test.make ~name:"cached fingerprint = digest from scratch, through every mutator"
    ~count:500
    (QCheck.make QCheck.Gen.(pair (0 -- 1000) (list_size (1 -- 40) op)))
    (fun (uid, ops) ->
      let pool = Netsim.Pool.create ~poison:true () in
      let clock = { Netsim.Sim.f = 0.0 } in
      let p =
        ref
          (Netsim.Pool.acquire pool ~clock ~uid ~src:1 ~dst:2 ~flow:3 ~size:500
             (Netsim.Packet.Tcp { seq = uid; ack = -1; syn = true; fin = false }))
      in
      let buf = Bytes.create 16 in
      List.for_all
        (fun (i, op) ->
          let key = memo_keys.(i land 1) and other = memo_keys.((i + 1) land 1) in
          (* Warm the cache under this step's key, then mutate. *)
          let warm = memo_agrees key !p buf in
          let after =
            match op with
            | Set_payload w ->
                Netsim.Packet.set_payload !p w;
                memo_agrees key !p buf
            | Xor_payload w ->
                Netsim.Packet.xor_payload !p w;
                memo_agrees key !p buf
            | Recycle (uid, src, size) ->
                Netsim.Pool.release pool !p;
                let poisoned = memo_agrees key !p buf in
                p := Netsim.Pool.acquire pool ~clock ~uid ~src ~dst:2 ~flow:3 ~size Netsim.Packet.Udp;
                poisoned && memo_agrees key !p buf
            | Clone_modify w ->
                let c = Netsim.Packet.clone !p in
                Netsim.Packet.xor_payload c (Int64.logor w 1L);
                memo_agrees key c buf && memo_agrees key !p buf && memo_agrees other c buf
            | Spend_ttl ->
                Netsim.Packet.set_ttl !p (!p.Netsim.Packet.ttl - 1);
                memo_agrees key !p buf
          in
          warm && after && memo_agrees other !p buf)
        (List.mapi (fun i op -> (i, op)) ops))

(* The adversary's coin was [u = (hash_int >>> 11) / 2^53] on the int64
   hash; it now gets those 53 bits as an int.  Its draws decide every
   attack's victims, so they must not move by one bit. *)
let prop_coin_matches_int64_formula =
  QCheck.Test.make ~name:"adversary coin = its int64 formula" ~count:1000
    QCheck.(triple small_nat int (float_bound_inclusive 1.0))
    (fun (seed, uid, fraction) ->
      let key = Siphash.key_of_ints (Int64.of_int seed) 0xadfeL in
      let bits = Int64.shift_right_logical (Siphash.hash_int key uid) 11 in
      let drop = Int64.to_float bits /. 9.007199254740992e15 < fraction in
      let clock = { Netsim.Sim.f = 0.0 } in
      let ctx =
        { Netsim.Router.clock; prev = 0; next_hop = 1; queue_occupancy = 0;
          queue_limit = 64_000; red = None }
      in
      let pkt = Netsim.Packet.make_at ~clock ~uid ~src:0 ~dst:1 ~flow:0 ~size:1 Netsim.Packet.Udp in
      Siphash.hash_int_bits key uid = Int64.to_int bits
      && (Core.Adversary.drop_fraction ~seed fraction ctx pkt = Netsim.Router.Drop) = drop)

let prop_sign_roundtrip =
  QCheck.Test.make ~name:"sign/verify roundtrip" ~count:200
    QCheck.(pair (int_bound 7) (list int64))
    (fun (signer, words) ->
      Keyring.verify_words ring ~signer words (Keyring.sign_words ring ~signer words))

let () =
  Alcotest.run "crypto_sim"
    [ ( "fnv",
        [ Alcotest.test_case "known vectors" `Quick test_fnv_known;
          Alcotest.test_case "int64 consistent" `Quick test_fnv_int64_consistent;
          Alcotest.test_case "int edges" `Quick test_fnv_int_edges ] );
      ( "siphash",
        [ Alcotest.test_case "reference vectors" `Quick test_siphash_vectors;
          Alcotest.test_case "key sensitivity" `Quick test_siphash_key_sensitivity;
          Alcotest.test_case "word hashing" `Quick test_siphash_int64s_deterministic;
          Alcotest.test_case "key_of_string" `Quick test_key_of_string_stable ] );
      ( "keyring",
        [ Alcotest.test_case "sign/verify" `Quick test_sign_verify;
          Alcotest.test_case "sign words" `Quick test_sign_words;
          Alcotest.test_case "bounds" `Quick test_keyring_bounds;
          Alcotest.test_case "determinism" `Quick test_keyring_determinism_across_instances
        ] );
      ( "sampling",
        [ Alcotest.test_case "all" `Quick test_sampling_all;
          Alcotest.test_case "fraction" `Quick test_sampling_fraction;
          Alcotest.test_case "agreement" `Quick test_sampling_agreement;
          Alcotest.test_case "zero" `Quick test_sampling_zero ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_fnv_hash_int; prop_siphash_deterministic; prop_siphash_no_trivial_collision;
            prop_int64s_match_bytes; prop_hash_int_matches_int64s; prop_fingerprint_tuple;
            prop_fingerprint_into; prop_fingerprint_memo; prop_coin_matches_int64_formula;
            prop_sign_roundtrip ] ) ]
