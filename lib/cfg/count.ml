open Grammar
module Bignum = Ucfg_util.Bignum

module Counts = Weighted.Make (Semiring.Counting)

let derivations_by_length g max_len =
  if not (Grammar.is_cnf g) then
    invalid_arg "Count.derivations_by_length: grammar not in CNF";
  Array.map (fun row -> row.(start g)) (Counts.length_table g max_len)

let words_unambiguous g max_len =
  Bignum.sum (Array.to_list (derivations_by_length g max_len))

let words_by_enumeration ?max_len ?max_card g =
  let lang = Analysis.language_exn ?max_len ?max_card g in
  Bignum.of_int (Ucfg_lang.Lang.cardinal lang)
