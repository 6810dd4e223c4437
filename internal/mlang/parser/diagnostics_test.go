package parser

import "testing"

// TestFrontEndDiagnostics pins which error a source with several reports,
// and where. The rule is the one a lex-everything-first front end had: the
// first lexical error anywhere in the input wins over any syntax error, even
// one on an earlier line, and "integer literal out of range" is a syntax
// error like any other. Every expectation was recorded on that front end.
func TestFrontEndDiagnostics(t *testing.T) {
	progs := []struct{ src, want string }{
		{"let main () = )\nlet s2 = \"oops", "2:10: lexical error: unterminated string literal"},
		{"let main () = )\n(* never closed", "2:1: lexical error: unterminated comment"},
		{"let x = 99999999999999999999", "1:9: syntax error: integer literal out of range"},
		{"let x = -99999999999999999999", "1:10: syntax error: integer literal out of range"},
		{"let f x = match x with | 99999999999999999999 -> 0 | _ -> 1", "1:26: syntax error: integer literal out of range"},
		{"let f x = match x with | -99999999999999999999 -> 0 | _ -> 1", "1:27: syntax error: integer literal out of range"},
		{"let x = 99999999999999999999\nlet y = 1 & 2", "2:11: lexical error: unexpected character '&' (did you mean &&?)"},
		{"let x = 1 +", "1:12: syntax error: expected expression, found EOF"},
		{"let x = (1", "1:11: syntax error: expected ), found EOF"},
		{"let x = 1 &", "1:11: lexical error: unexpected character '&' (did you mean &&?)"},
		{"let x = 1 $ 2\nlet y = \"a", "1:11: lexical error: unexpected character '$'"},
		{"let x = \"a\\qb\"\nlet y = )", "1:9: lexical error: unknown escape \\q"},
		{"let x = 'a' 1", "1:9: syntax error: expected expression, found TYVAR(\"a'\")"},
		{"type t = A of\n", "2:1: syntax error: expected type, found EOF"},
		{"let x = 1\nlet", "2:4: syntax error: expected binding name, found EOF"},
		{"let x = 1 in", "1:11: syntax error: expected declaration, found in"},
		{"let main () = 1;;\n;; )", "2:4: syntax error: expected declaration, found )"},
		{"", ""},
	}
	for _, c := range progs {
		_, err := Parse(c.src)
		if got := errText(err); got != c.want {
			t.Errorf("Parse(%q):\n got %s\nwant %s", c.src, got, c.want)
		}
	}

	exprs := []struct{ src, want string }{
		{"1 + )\n\"abc", "2:1: lexical error: unterminated string literal"},
		{"1 2 )", "1:5: syntax error: unexpected ) after expression"},
		{"f x y in", "1:7: syntax error: unexpected in after expression"},
		{"(1, 2", "1:6: syntax error: expected ), found EOF"},
		{"99999999999999999999 + \"x", "1:24: lexical error: unterminated string literal"},
		{"match x with | -99999999999999999999 -> 0", "1:17: syntax error: integer literal out of range"},
		{"", "1:1: syntax error: expected expression, found EOF"},
		{"1 + (* open", "1:5: lexical error: unterminated comment"},
	}
	for _, c := range exprs {
		_, err := ParseExpr(c.src)
		if got := errText(err); got != c.want {
			t.Errorf("ParseExpr(%q):\n got %s\nwant %s", c.src, got, c.want)
		}
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
