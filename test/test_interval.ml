(* Unit and property tests for the interval domain that carries the
   dependence distance/direction abstraction. *)

module Mpz = Inl_num.Mpz
module I = Inl_presburger.Interval

let t = Alcotest.testable I.pp I.equal
let z = Mpz.of_int

let test_symbols () =
  Alcotest.(check string) "point" "3" (I.to_symbol (I.of_int 3));
  Alcotest.(check string) "plus" "+" (I.to_symbol I.plus);
  Alcotest.(check string) "minus" "-" (I.to_symbol I.minus);
  Alcotest.(check string) "star" "*" (I.to_symbol I.top);
  Alcotest.(check string) "nonneg" "+0" (I.to_symbol (I.make (Fin Mpz.zero) PosInf));
  Alcotest.(check string) "nonpos" "-0" (I.to_symbol (I.make NegInf (Fin Mpz.zero)));
  Alcotest.(check string) "range" "[2,5]" (I.to_symbol (I.of_ints 2 5));
  Alcotest.(check string) "ray" "[2,oo)" (I.to_symbol (I.make (Fin (z 2)) PosInf))

let test_predicates () =
  Alcotest.(check bool) "plus positive" true (I.definitely_positive I.plus);
  Alcotest.(check bool) "nonneg not positive" false
    (I.definitely_positive (I.make (Fin Mpz.zero) PosInf));
  Alcotest.(check bool) "nonneg is nonneg" true (I.definitely_nonneg (I.make (Fin Mpz.zero) PosInf));
  Alcotest.(check bool) "zero point" true (I.definitely_zero I.zero);
  Alcotest.(check bool) "minus negative" true (I.definitely_negative I.minus);
  Alcotest.(check bool) "empty not positive" false
    (I.definitely_positive (I.make PosInf NegInf));
  Alcotest.(check bool) "empty is empty" true (I.is_empty (I.of_ints 3 2));
  Alcotest.(check bool) "contains" true (I.contains (I.of_ints (-2) 2) Mpz.zero);
  Alcotest.(check bool) "not contains" false (I.contains I.plus Mpz.zero)

let test_arithmetic () =
  Alcotest.(check t) "add points" (I.of_int 5) (I.add (I.of_int 2) (I.of_int 3));
  Alcotest.(check t) "add ray" (I.make (Fin (z 3)) PosInf) (I.add I.plus (I.of_int 2));
  Alcotest.(check t) "plus + minus = star" I.top (I.add I.plus I.minus);
  Alcotest.(check t) "neg plus" I.minus (I.neg I.plus);
  Alcotest.(check t) "scale 0" I.zero (I.scale Mpz.zero I.top);
  Alcotest.(check t) "scale -1 flips" I.minus (I.scale Mpz.minus_one I.plus);
  Alcotest.(check t) "scale 2 range" (I.of_ints (-4) 6) (I.scale Mpz.two (I.of_ints (-2) 3))

let test_lattice () =
  Alcotest.(check t) "hull" (I.of_ints (-1) 7) (I.hull (I.of_ints (-1) 2) (I.of_ints 5 7));
  Alcotest.(check t) "hull with empty" (I.of_ints 1 2)
    (I.hull (I.make PosInf NegInf) (I.of_ints 1 2));
  Alcotest.(check t) "inter" (I.of_ints 2 3) (I.inter (I.of_ints 0 3) (I.of_ints 2 9));
  Alcotest.(check bool) "disjoint inter empty" true
    (I.is_empty (I.inter (I.of_ints 0 1) (I.of_ints 3 4)))

(* The one lexicographic box test shared by legality, completion
   pruning and augmentation, on its edge boxes. *)
let test_lex_class () =
  let name = function
    | I.Satisfied -> "Satisfied"
    | I.Possibly_zero -> "Possibly_zero"
    | I.Violated -> "Violated"
  in
  let lex = Alcotest.testable (fun fmt c -> Format.pp_print_string fmt (name c)) ( = ) in
  let nonneg = I.make (Fin Mpz.zero) PosInf in
  let check name want v = Alcotest.(check lex) name want (I.lex_class (Array.of_list v)) in
  check "empty vector" I.Possibly_zero [];
  check "point 0" I.Possibly_zero [ I.zero ];
  check "[0,+inf)" I.Possibly_zero [ nonneg ];
  check "[1,+inf)" I.Satisfied [ I.plus ];
  check "[-1,1]" I.Violated [ I.of_ints (-1) 1 ];
  check "top" I.Violated [ I.top ];
  check "empty coordinate" I.Violated [ I.of_ints 3 2 ];
  check "zero then positive" I.Satisfied [ I.zero; I.plus; I.top ];
  check "positive settles the suffix" I.Satisfied [ I.plus; I.minus ];
  check "[0,+inf) defers to the suffix" I.Violated [ nonneg; I.of_ints (-1) 1 ];
  check "[0,+inf) then positive" I.Satisfied [ nonneg; I.plus ];
  Alcotest.(check t) "dot of the empty vector" I.zero (I.dot [||] [||]);
  Alcotest.(check t) "dot" (I.make (Fin (z 1)) PosInf)
    (I.dot [| Mpz.one; Mpz.minus_one; Mpz.zero |] [| I.plus; I.zero; I.top |])

(* soundness of the interval ops w.r.t. concrete points *)
let gen_small_interval =
  let open QCheck2.Gen in
  let* a = int_range (-6) 6 in
  let* b = int_range (-6) 6 in
  let* kind = int_range 0 3 in
  return
    (match kind with
    | 0 -> I.of_ints (min a b) (max a b)
    | 1 -> I.make (Fin (z (min a b))) PosInf
    | 2 -> I.make NegInf (Fin (z (max a b)))
    | _ -> I.top)

let points iv =
  List.filter (fun x -> I.contains iv (z x)) (List.init 31 (fun i -> i - 15))

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count:300 gen f)

let props =
  [
    prop "add sound on points" (QCheck2.Gen.pair gen_small_interval gen_small_interval)
      (fun (a, b) ->
        List.for_all
          (fun x ->
            List.for_all (fun y -> I.contains (I.add a b) (z (x + y))) (points b))
          (points a));
    prop "scale sound on points"
      (QCheck2.Gen.pair (QCheck2.Gen.int_range (-3) 3) gen_small_interval)
      (fun (k, a) -> List.for_all (fun x -> I.contains (I.scale (z k) a) (z (k * x))) (points a));
    prop "hull contains both" (QCheck2.Gen.pair gen_small_interval gen_small_interval)
      (fun (a, b) ->
        List.for_all (fun x -> I.contains (I.hull a b) (z x)) (points a @ points b));
    prop "inter is conjunction" (QCheck2.Gen.pair gen_small_interval gen_small_interval)
      (fun (a, b) ->
        List.for_all
          (fun x ->
            I.contains (I.inter a b) (z x) = (I.contains a (z x) && I.contains b (z x)))
          (List.init 31 (fun i -> i - 15)));
  ]

let () =
  Alcotest.run "interval"
    [
      ( "interval",
        [
          Alcotest.test_case "paper symbols" `Quick test_symbols;
          Alcotest.test_case "predicates" `Quick test_predicates;
          Alcotest.test_case "arithmetic" `Quick test_arithmetic;
          Alcotest.test_case "lattice ops" `Quick test_lattice;
          Alcotest.test_case "lexicographic box test" `Quick test_lex_class;
        ] );
      ("properties", props);
    ]
