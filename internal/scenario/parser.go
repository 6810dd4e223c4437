package scenario

import (
	"fmt"
	"strings"

	"tagfree/internal/gc"
	"tagfree/internal/mlang/token"
	"tagfree/internal/pipeline"
	"tagfree/internal/serve"
)

// The scenario parser: a recursive-descent walk over the token stream
// with one token of lookahead, validating as it goes. Every failure —
// lexical, syntactic or semantic (unknown key, unknown strategy,
// out-of-range size) — is reported as a *PosError carrying the offending
// token's position, so `tfbench -scenario` failures always read
// "file.tfs:line:col: message". Validation happens here rather than in a
// separate pass so the position is still at hand. The axes and mix have
// list parsers of their own; every scalar key is a row of pipeline.Knobs,
// which holds its range and sentence (parseKnob).

// Parse parses .tfs source into its scenarios. It returns the first
// error encountered; the error is always a *PosError.
func Parse(src string) ([]*Scenario, error) {
	p := &parser{lex: NewLexer(src)}
	p.advance()
	var out []*Scenario
	seen := map[string]token.Pos{}
	for {
		p.skipNewlines()
		if p.tok.Kind == EOF {
			return out, nil
		}
		sc, err := p.parseScenario()
		if err != nil {
			return nil, err
		}
		if prev, dup := seen[sc.Name]; dup {
			return nil, posErrorf(sc.Pos, "duplicate scenario name %q (first defined at %s)", sc.Name, prev)
		}
		seen[sc.Name] = sc.Pos
		out = append(out, sc)
	}
}

type parser struct {
	lex *Lexer
	tok Token
}

func (p *parser) advance() { p.tok = p.lex.Next() }

func (p *parser) skipNewlines() {
	for p.tok.Kind == NEWLINE {
		p.advance()
	}
}

// fail turns an unexpected token into a diagnostic, preferring the
// lexer's own message when the token is one it already flagged.
func (p *parser) fail(format string, args ...any) error {
	if p.tok.Kind == ILLEGAL {
		if errs := p.lex.Errors(); len(errs) > 0 {
			return errs[0]
		}
	}
	return posErrorf(p.tok.Pos, format, args...)
}

func (p *parser) describe() string {
	switch p.tok.Kind {
	case EOF:
		return "end of file"
	case NEWLINE:
		return "end of line"
	case IDENT, INT, FLOAT, ILLEGAL:
		return fmt.Sprintf("%q", p.tok.Text)
	}
	return fmt.Sprintf("%q", p.tok.Kind.String())
}

// expectEndOfLine consumes the statement terminator (newline, or the
// closing brace left for the caller).
func (p *parser) expectEndOfLine(what string) error {
	switch p.tok.Kind {
	case NEWLINE:
		p.advance()
		return nil
	case RBRACE, EOF:
		return nil
	}
	return p.fail("expected end of line after %s, found %s", what, p.describe())
}

// parseScenario parses `scenario <name> { ... }`.
func (p *parser) parseScenario() (*Scenario, error) {
	if p.tok.Kind != IDENT || p.tok.Text != "scenario" {
		return nil, p.fail("expected \"scenario\", found %s", p.describe())
	}
	sc := &Scenario{Pos: p.tok.Pos, Repeats: 1, keyPos: map[string]token.Pos{}}
	p.advance()
	if p.tok.Kind != IDENT {
		return nil, p.fail("expected scenario name, found %s", p.describe())
	}
	sc.Name = p.tok.Text
	p.advance()
	if p.tok.Kind != LBRACE {
		return nil, p.fail("expected { after scenario name, found %s", p.describe())
	}
	p.advance()
	for {
		p.skipNewlines()
		if p.tok.Kind == RBRACE {
			p.advance()
			break
		}
		if p.tok.Kind == EOF {
			return nil, posErrorf(sc.Pos, "scenario %q missing closing }", sc.Name)
		}
		if err := p.parseStmt(sc); err != nil {
			return nil, err
		}
	}
	if sc.Workload == "" {
		return nil, posErrorf(sc.Pos, "scenario %q missing required key \"workload\"", sc.Name)
	}
	if len(sc.Mix) > 0 && sc.Arrivals == nil {
		return nil, posErrorf(sc.keyPos["mix"], "mix requires an arrivals block (closed-loop runs use the whole corpus)")
	}
	// Unset axes default to the full comparative shape on the strategy
	// axis and the minimal one elsewhere.
	if len(sc.Strategies) == 0 {
		sc.Strategies = append(sc.Strategies, pipeline.Strategies...)
	}
	if len(sc.Disciplines) == 0 {
		sc.Disciplines = []Discipline{Copying}
	}
	if len(sc.Shards) == 0 {
		sc.Shards = []int{1}
	}
	return sc, nil
}

// parseStmt parses one `key values` statement inside a scenario body.
func (p *parser) parseStmt(sc *Scenario) error {
	if p.tok.Kind != IDENT {
		return p.fail("expected scenario key, found %s", p.describe())
	}
	key, keyPos := p.tok.Text, p.tok.Pos
	if prev, dup := sc.keyPos[key]; dup {
		return posErrorf(keyPos, "duplicate key %q (first set at %s)", key, prev)
	}
	sc.keyPos[key] = keyPos
	p.advance()

	var err error
	switch key {
	case "workload":
		sc.Workload, err = p.ident("workload name")
	case "strategies":
		for p.tok.Kind == IDENT {
			strat, err := gc.ParseStrategy(p.tok.Text)
			if err != nil {
				return &PosError{Pos: p.tok.Pos, Err: err}
			}
			for _, have := range sc.Strategies {
				if have == strat {
					return posErrorf(p.tok.Pos, "duplicate strategy %q", p.tok.Text)
				}
			}
			sc.Strategies = append(sc.Strategies, strat)
			p.advance()
		}
		if len(sc.Strategies) == 0 {
			return p.fail("expected at least one strategy, found %s", p.describe())
		}
	case "disciplines":
		for p.tok.Kind == IDENT {
			var d Discipline
			switch p.tok.Text {
			case "copying":
				d = Copying
			case "marksweep":
				d = MarkSweep
			default:
				return posErrorf(p.tok.Pos, "unknown discipline %q (have copying, marksweep)", p.tok.Text)
			}
			for _, have := range sc.Disciplines {
				if have == d {
					return posErrorf(p.tok.Pos, "duplicate discipline %q", p.tok.Text)
				}
			}
			sc.Disciplines = append(sc.Disciplines, d)
			p.advance()
		}
		if len(sc.Disciplines) == 0 {
			return p.fail("expected at least one discipline, found %s", p.describe())
		}
	case "shards":
		sc.Shards, err = p.intAxis(key, "shard count")
	case "faults":
		if err := p.parseBlock(sc, key); err != nil {
			return err
		}
		return p.expectEndOfLine("faults block")
	case "arrivals":
		// period and requests are required; everything else defaults like
		// the tfserve flags.
		sc.Arrivals = &serve.Config{}
		if err := p.parseBlock(sc, key); err != nil {
			return err
		}
		if sc.Arrivals.Period == 0 {
			return posErrorf(keyPos, "arrivals block missing required key \"period\"")
		}
		if sc.Arrivals.Requests == 0 {
			return posErrorf(keyPos, "arrivals block missing required key \"requests\"")
		}
		return p.expectEndOfLine("arrivals block")
	case "mix":
		return p.parseMix(sc)
	default:
		err = p.parseKnob(sc, "", key, keyPos)
	}
	if err != nil {
		return err
	}
	return p.expectEndOfLine(key)
}

// intAxis parses the values of a list axis (shards), each checked
// against the range of the axis's table row.
func (p *parser) intAxis(key, what string) ([]int, error) {
	k := pipeline.FindKey("", key)
	var out []int
	for p.tok.Kind == INT {
		n, err := k.ParseInt(p.tok.Text)
		if err != nil {
			return nil, &PosError{Pos: p.tok.Pos, Err: err}
		}
		for _, have := range out {
			if have == int(n) {
				return nil, posErrorf(p.tok.Pos, "duplicate %s %d", key, n)
			}
		}
		out = append(out, int(n))
		p.advance()
	}
	if len(out) == 0 {
		return nil, p.fail("expected at least one %s, found %s", what, p.describe())
	}
	return out, nil
}

// parseBlock parses a `{ key [value] ... }` block of scalar keys — faults,
// arrivals — one table row per key.
func (p *parser) parseBlock(sc *Scenario, block string) error {
	if p.tok.Kind != LBRACE {
		return p.fail("expected { after %s, found %s", block, p.describe())
	}
	p.advance()
	seen := map[string]token.Pos{}
	for {
		p.skipNewlines()
		if p.tok.Kind == RBRACE {
			p.advance()
			return nil
		}
		if p.tok.Kind != IDENT {
			return p.fail("expected %s key, found %s", block, p.describe())
		}
		key, keyPos := p.tok.Text, p.tok.Pos
		if prev, dup := seen[key]; dup {
			return posErrorf(keyPos, "duplicate key %q (first set at %s)", key, prev)
		}
		seen[key] = keyPos
		p.advance()
		if err := p.parseKnob(sc, block, key, keyPos); err != nil {
			return err
		}
		if err := p.expectEndOfLine(key); err != nil {
			return err
		}
	}
}

// knob resolves a scalar key of a block ("" = the scenario body) to its
// table row and the struct the row's field lives in.
func (sc *Scenario) knob(block, key string) (*pipeline.Knob, any) {
	if block == "" && key == repeatsKnob.Key {
		return &repeatsKnob, sc
	}
	k := pipeline.FindKey(block, key)
	switch {
	case k == nil || k.Axis:
		return nil, nil
	case k.Serve:
		return k, sc.Arrivals
	}
	return k, &sc.Opts
}

// keyList renders the keys a block accepts, for the unknown-key diagnostic.
func keyList(block string) string {
	var keys []string
	for _, k := range pipeline.Knobs {
		if k.Block == block && k.Key != "" && !k.Axis {
			keys = append(keys, k.Key)
		}
	}
	list := strings.Join(keys, ", ")
	if block == "" {
		list = "workload, strategies, disciplines, shards, repeats, " + list + ", faults, arrivals, mix"
	}
	return list
}

// parseKnob parses the value of one scalar key through its table row: a
// bare key sets a Bool, anything else takes one number, range-checked by
// the row with the sentence the CLIs print for the same flag.
func (p *parser) parseKnob(sc *Scenario, block, key string, keyPos token.Pos) error {
	k, target := sc.knob(block, key)
	if k == nil {
		name := block
		if block == "" {
			name = "scenario"
		}
		return posErrorf(keyPos, "unknown %s key %q (have %s)", name, key, keyList(block))
	}
	if k.Kind == pipeline.Bool {
		return k.Set(target, "true")
	}
	if p.tok.Kind != INT && !(p.tok.Kind == FLOAT && k.Kind == pipeline.Float) {
		what := "integer"
		if k.Kind == pipeline.Float {
			what = "number"
		}
		return p.fail("expected %s after %s, found %s", what, key, p.describe())
	}
	if err := k.Set(target, p.tok.Text); err != nil {
		return &PosError{Pos: p.tok.Pos, Err: err}
	}
	p.advance()
	return nil
}

// parseMix parses the `mix { <entry> <weight> ... }` block: the weighted
// service mix arrivals sample from. Entry names are validated against the
// workload at compile time (the workload may come from another key that
// has not parsed yet).
func (p *parser) parseMix(sc *Scenario) error {
	if p.tok.Kind != LBRACE {
		return p.fail("expected { after mix, found %s", p.describe())
	}
	p.advance()
	seen := map[string]token.Pos{}
	for {
		p.skipNewlines()
		if p.tok.Kind == RBRACE {
			p.advance()
			if len(sc.Mix) == 0 {
				return posErrorf(sc.keyPos["mix"], "mix block needs at least one entry")
			}
			return p.expectEndOfLine("mix block")
		}
		if p.tok.Kind != IDENT {
			return p.fail("expected mix entry name, found %s", p.describe())
		}
		entry, entryPos := p.tok.Text, p.tok.Pos
		if prev, dup := seen[entry]; dup {
			return posErrorf(entryPos, "duplicate mix entry %q (first set at %s)", entry, prev)
		}
		seen[entry] = entryPos
		p.advance()
		if p.tok.Kind != INT {
			return p.fail("expected integer after mix weight, found %s", p.describe())
		}
		n, err := mixWeightKnob.ParseInt(p.tok.Text)
		if err != nil {
			return &PosError{Pos: p.tok.Pos, Err: err}
		}
		p.advance()
		sc.Mix = append(sc.Mix, MixItem{Entry: entry, Weight: int(n), Pos: entryPos})
		if err := p.expectEndOfLine(entry); err != nil {
			return err
		}
	}
}

// ident consumes one identifier argument.
func (p *parser) ident(what string) (string, error) {
	if p.tok.Kind != IDENT {
		return "", p.fail("expected %s, found %s", what, p.describe())
	}
	name := p.tok.Text
	p.advance()
	return name, nil
}
