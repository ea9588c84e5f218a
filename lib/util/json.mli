(** The one JSON string escaper behind every JSON writer (bench
    records, telemetry exports, the metrics registry, dlin
    counterexamples). *)

val escape : string -> string
(** The body of a JSON string literal holding [s], without the
    surrounding quotes: the double quote and the backslash are
    backslash-escaped, newline, carriage return and tab use their short
    forms, and every other control character is written as a [\u]
    escape with four hex digits. *)
