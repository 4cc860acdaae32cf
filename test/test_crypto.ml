(* Tests for crypto_sim: FNV, SipHash-2-4 (against the reference vectors),
   the simulated keyring/signatures, and hash-range sampling. *)

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

let test_fnv_combine_chains () =
  let a = Fnv.combine Fnv.offset_basis 1L in
  let b = Fnv.combine a 2L in
  Alcotest.(check bool) "combine changes state" true (a <> b);
  Alcotest.(check int64) "first step = hash_int64" (Fnv.hash_int64 1L) a

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
      ignore (Siphash.hash_fields reference_key 1 2 3 4 5 6L ~tail:5 7 8 9 10))

let test_key_of_string_stable () =
  let k1 = Siphash.key_of_string "router-7" in
  let k2 = Siphash.key_of_string "router-7" in
  Alcotest.(check bool) "stable" true (Siphash.hash k1 "x" = Siphash.hash k2 "x");
  let k3 = Siphash.key_of_string "router-8" in
  Alcotest.(check bool) "distinct" true (Siphash.hash k1 "x" <> Siphash.hash k3 "x")

(* --- Keyring --- *)

let ring = Keyring.create ~n:8 ()

let test_pairwise_symmetric () =
  for a = 0 to 7 do
    for b = 0 to 7 do
      let kab = Keyring.pairwise ring a b and kba = Keyring.pairwise ring b a in
      Alcotest.(check int64)
        (Printf.sprintf "pairwise %d %d" a b)
        (Siphash.hash kab "m") (Siphash.hash kba "m")
    done
  done

let test_pairwise_distinct_pairs () =
  let h01 = Siphash.hash (Keyring.pairwise ring 0 1) "m" in
  let h02 = Siphash.hash (Keyring.pairwise ring 0 2) "m" in
  Alcotest.(check bool) "pairs differ" true (h01 <> h02)

let test_sign_verify () =
  let tag = Keyring.sign ring ~signer:3 "traffic summary" in
  Alcotest.(check bool) "verifies" true (Keyring.verify ring ~signer:3 "traffic summary" tag);
  Alcotest.(check bool) "wrong message rejected" false
    (Keyring.verify ring ~signer:3 "tampered" tag);
  Alcotest.(check bool) "wrong signer rejected" false
    (Keyring.verify ring ~signer:4 "traffic summary" tag);
  Alcotest.(check bool) "forge rejected" false
    (Keyring.verify ring ~signer:3 "traffic summary" Keyring.forge_attempt)

let test_sign_words () =
  let words = [ 77L; 12L ] in
  let tag = Keyring.sign_words ring ~signer:1 words in
  Alcotest.(check bool) "verifies" true (Keyring.verify_words ring ~signer:1 words tag);
  Alcotest.(check bool) "altered rejected" false
    (Keyring.verify_words ring ~signer:1 [ 77L; 13L ] tag)

let test_keyring_bounds () =
  Alcotest.check_raises "out of range"
    (Invalid_argument "Keyring.pairwise: router id 9 outside [0,8)")
    (fun () -> ignore (Keyring.pairwise ring 9 0))

let test_keyring_determinism_across_instances () =
  let ring2 = Keyring.create ~n:8 () in
  Alcotest.(check int64) "same seed, same keys"
    (Keyring.sign ring ~signer:2 "m" :> int64)
    (Keyring.sign ring2 ~signer:2 "m" :> int64);
  let ring3 = Keyring.create ~seed:"other" ~n:8 () in
  Alcotest.(check bool) "different seed, different keys" true
    (not
       (Int64.equal
          (Keyring.sign ring ~signer:2 "m" :> int64)
          (Keyring.sign ring3 ~signer:2 "m" :> int64)))

(* --- Sampling --- *)

let test_sampling_all () =
  for i = 0 to 100 do
    if not (Sampling.selects Sampling.all (Int64.of_int i)) then
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

(* The packet fingerprint wire format, written out word by word: uid,
   src, dst, flow, size, payload, then the protocol tag and its fields
   (Tcp's flags word is syn * 2 + fin).  Fingerprint values order Byz
   pruning and feed every golden digest, so this format must not move. *)
let prop_fingerprint_tuple =
  QCheck.Test.make ~name:"Packet.fingerprint = hash_int64s of its tuple" ~count:1000
    QCheck.(pair (quad int int int int) (quad int int64 (int_bound 6) (pair int int)))
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
      let p = Netsim.Packet.make_at ~now:0.0 ~uid ~src ~dst ~flow ~size:1 proto in
      p.Netsim.Packet.size <- size;
      p.Netsim.Packet.payload <- payload;
      let tuple =
        [ Int64.of_int uid; Int64.of_int src; Int64.of_int dst; Int64.of_int flow;
          Int64.of_int size; payload ]
        @ proto_words
      in
      Netsim.Packet.fingerprint reference_key p = Siphash.hash_int64s reference_key tuple)

let prop_sign_roundtrip =
  QCheck.Test.make ~name:"sign/verify roundtrip" ~count:200
    QCheck.(pair (int_bound 7) string)
    (fun (signer, msg) ->
      Keyring.verify ring ~signer msg (Keyring.sign ring ~signer msg))


(* --- SHA-256 / HMAC --- *)

let test_sha256_vectors () =
  (* FIPS 180-4 / NIST example vectors. *)
  Alcotest.(check string) "empty"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.digest_hex "");
  Alcotest.(check string) "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.digest_hex "abc");
  Alcotest.(check string) "448-bit"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.digest_hex "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  (* Two-block (896-bit) NIST vector. *)
  Alcotest.(check string) "896-bit"
    "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
    (Sha256.digest_hex
       "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
        ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu");
  (* One million 'a' — the classic long-message vector; ~6 ms with the
     unrolled kernel, cheap enough to keep in the quick suite. *)
  Alcotest.(check string) "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.digest_hex (String.make 1_000_000 'a'))

let test_sha256_padding_boundaries () =
  (* Lengths around the 55/56/64-byte padding boundaries must all work
     and differ. *)
  let digests =
    List.map (fun n -> Sha256.digest_hex (String.make n 'x')) [ 54; 55; 56; 57; 63; 64; 65 ]
  in
  Alcotest.(check int) "all distinct" (List.length digests)
    (List.length (List.sort_uniq compare digests))

let test_hmac_sha256_vectors () =
  (* The full RFC 4231 HMAC-SHA-256 vector set.  tc6/tc7 use a 131-byte
     key and so exercise the hash-the-key path of [hmac_key]. *)
  let check name ~key data expected =
    Alcotest.(check string) name expected (Sha256.hmac_hex ~key data)
  in
  check "rfc4231 tc1" ~key:(String.make 20 '\x0b') "Hi There"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7";
  check "rfc4231 tc2" ~key:"Jefe" "what do ya want for nothing?"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843";
  check "rfc4231 tc3" ~key:(String.make 20 '\xaa') (String.make 50 '\xdd')
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe";
  check "rfc4231 tc4"
    ~key:(String.init 25 (fun i -> Char.chr (i + 1)))
    (String.make 50 '\xcd')
    "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b";
  (* tc5 is defined on the 128-bit truncation of the tag. *)
  Alcotest.(check string) "rfc4231 tc5 (truncated-128)"
    "a3b6167473100ee06e0c796c2955552b"
    (String.sub (Sha256.hmac_hex ~key:(String.make 20 '\x0c') "Test With Truncation") 0 32);
  check "rfc4231 tc6" ~key:(String.make 131 '\xaa')
    "Test Using Larger Than Block-Size Key - Hash Key First"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54";
  check "rfc4231 tc7" ~key:(String.make 131 '\xaa')
    "This is a test using a larger than block-size key and a larger than \
     block-size data. The key needs to be hashed before being used by the \
     HMAC algorithm."
    "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"

let test_streaming_matches_one_shot () =
  (* Absorbing the message in arbitrary chunk sizes must agree with the
     one-shot digest, for lengths across several block boundaries. *)
  let rng = Random.State.make [| 0x5eed |] in
  List.iter
    (fun n ->
      let msg = String.init n (fun i -> Char.chr ((i * 131) land 0xff)) in
      let ctx = Sha256.init () in
      let pos = ref 0 in
      while !pos < n do
        let len = min (n - !pos) (1 + Random.State.int rng 97) in
        Sha256.update ~off:!pos ~len ctx msg;
        pos := !pos + len
      done;
      Alcotest.(check string)
        (Printf.sprintf "streaming len %d" n)
        (Sha256.digest msg) (Sha256.final ctx))
    [ 0; 1; 55; 56; 63; 64; 65; 127; 128; 129; 1500; 4096 ]

let test_hmac_key_caching () =
  (* hmac_with under a precomputed key is the same function as the
     one-shot hmac, and hmac64 is its 8-byte big-endian prefix. *)
  let keys = [ ""; "k"; String.make 64 'K'; String.make 131 '\xaa' ] in
  let msgs = [ ""; "x"; String.init 1500 (fun i -> Char.chr ((i * 7) land 0xff)) ] in
  List.iter
    (fun key ->
      let hk = Sha256.hmac_key ~key in
      List.iter
        (fun msg ->
          let tag = Sha256.hmac ~key msg in
          Alcotest.(check string) "cached key agrees" tag (Sha256.hmac_with hk msg);
          let prefix = ref 0L in
          for i = 0 to 7 do
            prefix :=
              Int64.logor (Int64.shift_left !prefix 8)
                (Int64.of_int (Char.code tag.[i]))
          done;
          Alcotest.(check int64) "hmac64 prefix" !prefix (Sha256.hmac64 hk msg))
        msgs)
    keys

let test_digest64 () =
  (* First 8 bytes of SHA-256("abc") big-endian. *)
  Alcotest.(check int64) "prefix" 0xba7816bf8f01cfeaL (Sha256.digest64 "abc");
  Alcotest.(check bool) "distinct" true (Sha256.digest64 "a" <> Sha256.digest64 "b")

let prop_sha256_deterministic =
  QCheck.Test.make ~name:"sha256 deterministic, length 32" ~count:200 QCheck.string
    (fun s -> Sha256.digest s = Sha256.digest s && String.length (Sha256.digest s) = 32)

let prop_sha256_matches_reference =
  (* Differential test of the unrolled kernel against the boring Int32
     reference implementation kept in [Sha256_ref]. *)
  QCheck.Test.make ~name:"sha256 matches reference impl" ~count:300 QCheck.string
    (fun s -> Sha256.digest s = Sha256_ref.digest s)

let prop_hmac_matches_reference =
  QCheck.Test.make ~name:"hmac matches reference impl" ~count:200
    QCheck.(pair string string)
    (fun (key, msg) -> Sha256.hmac ~key msg = Sha256_ref.hmac ~key msg)

let prop_hmac_key_sensitive =
  QCheck.Test.make ~name:"hmac distinguishes keys" ~count:200
    QCheck.(triple string string string)
    (fun (k1, k2, msg) ->
      (* HMAC zero-pads keys up to the 64-byte block, so keys that differ
         only in trailing zero bytes are the same key. *)
      let padded k =
        if String.length k > 64 then k else k ^ String.make (64 - String.length k) '\000'
      in
      padded k1 = padded k2 || Sha256.hmac ~key:k1 msg <> Sha256.hmac ~key:k2 msg)

let () =
  Alcotest.run "crypto_sim"
    [ ( "fnv",
        [ Alcotest.test_case "known vectors" `Quick test_fnv_known;
          Alcotest.test_case "int64 consistent" `Quick test_fnv_int64_consistent;
          Alcotest.test_case "combine chains" `Quick test_fnv_combine_chains ] );
      ( "siphash",
        [ Alcotest.test_case "reference vectors" `Quick test_siphash_vectors;
          Alcotest.test_case "key sensitivity" `Quick test_siphash_key_sensitivity;
          Alcotest.test_case "word hashing" `Quick test_siphash_int64s_deterministic;
          Alcotest.test_case "key_of_string" `Quick test_key_of_string_stable ] );
      ( "keyring",
        [ Alcotest.test_case "pairwise symmetric" `Quick test_pairwise_symmetric;
          Alcotest.test_case "pairwise distinct" `Quick test_pairwise_distinct_pairs;
          Alcotest.test_case "sign/verify" `Quick test_sign_verify;
          Alcotest.test_case "sign words" `Quick test_sign_words;
          Alcotest.test_case "bounds" `Quick test_keyring_bounds;
          Alcotest.test_case "determinism" `Quick test_keyring_determinism_across_instances
        ] );
      ( "sampling",
        [ Alcotest.test_case "all" `Quick test_sampling_all;
          Alcotest.test_case "fraction" `Quick test_sampling_fraction;
          Alcotest.test_case "agreement" `Quick test_sampling_agreement;
          Alcotest.test_case "zero" `Quick test_sampling_zero ] );
      ( "sha256",
        [ Alcotest.test_case "digest vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "padding boundaries" `Quick test_sha256_padding_boundaries;
          Alcotest.test_case "hmac vectors (rfc4231)" `Quick test_hmac_sha256_vectors;
          Alcotest.test_case "streaming = one-shot" `Quick test_streaming_matches_one_shot;
          Alcotest.test_case "hmac key caching" `Quick test_hmac_key_caching;
          Alcotest.test_case "digest64" `Quick test_digest64 ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_siphash_deterministic; prop_siphash_no_trivial_collision;
            prop_int64s_match_bytes; prop_fingerprint_tuple; prop_sign_roundtrip;
            prop_sha256_deterministic; prop_sha256_matches_reference; prop_hmac_matches_reference;
            prop_hmac_key_sensitive ] ) ]
