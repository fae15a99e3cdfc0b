package sral

// Lex exposes the lexer to the external tests, which can generate
// programs with the workload package.
var Lex = lex
