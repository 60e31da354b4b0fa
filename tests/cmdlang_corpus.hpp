// Command texts that parse: the inputs of the round-trip test
// (test_cmdlang) and the seed corpus of the parser's mutation property
// (test_properties).
#pragma once

struct RoundTripCase {
  const char* name;
  const char* text;
};

inline constexpr RoundTripCase kRoundTripCorpus[] = {
    {"bare", "ping;"},
    {"ints", "cmd a=1 b=-2 c=+3;"},
    {"floats", "cmd x=1.5 y=-2.75 z=1e3 w=2.5e-2;"},
    {"words", "cmd mode=fast dir=up_down;"},
    {"strings", "cmd s=\"hello there\" t=\"a=b;c\";"},
    {"escapes", "cmd s=\"quote \\\" and slash \\\\\";"},
    {"int_vector", "cmd v={1,2,3};"},
    {"float_vector", "cmd v={1.5,2.5};"},
    {"word_vector", "cmd v={up,down,left};"},
    {"string_vector", "cmd v={\"a b\",\"c d\"};"},
    {"array", "cmd a={{1,2},{3,4},{5}};"},
    {"comma_args", "cmd a=1,b=2,c=3;"},
    {"mixed_sep", "cmd a=1 b=2,c=3;"},
    {"empty_vector", "cmd v={};"},
    {"nested_many",
     "register name=foo host=\"bar\" port=1234 room=hawk "
     "class=\"ACEService\" caps={ptz,zoom} "
     "limits={{-90,90},{-30,30}};"},
    // Reals whose shortest round-trip form is shorter than %.17g's.
    {"real_tenth", "cmd x=0.1;"},
    {"real_pan", "cmd x=-26.2;"},
    {"real_1e21", "cmd x=1e21;"},
    {"real_min_subnormal", "cmd x=5e-324;"},
    {"real_negative_zero", "cmd x=-0.0;"},
    {"real_18_digits", "cmd x=123456789012345680.0;"},
};
