package lint

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/coopt"
	"repro/internal/core"
	"repro/internal/itc02"
)

// socModule is the lenient scanner's record of one module line.
type socModule struct {
	name       string
	line       int
	params     core.Params
	scanChains []int
	hasSC      bool
	children   []string
	childLine  int
}

// CheckSOCFile lints a .soc profile file from disk.
func CheckSOCFile(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return CheckSOCSource(path, string(data)), nil
}

// CheckSOCSource lints .soc source text. Unlike itc02.ParseSOC — which
// stops at the first problem — the linter scans the whole input leniently,
// reporting every syntax defect (SOC001) alongside the structural and
// TDV-precondition findings, each at its source line.
func CheckSOCSource(file, src string) *Report {
	r := &Report{}
	sc := bufio.NewScanner(strings.NewReader(src))
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)

	mods := map[string]*socModule{}
	var order []string
	topName, topLine := "", 0
	tmono, tmonoSet := 0, false
	lineNo := 0

	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		pos := Pos{File: file, Line: lineNo}
		switch fields[0] {
		case "soc":
			if len(fields) != 2 {
				r.Add("SOC001", pos, "", "want 'soc <name>'")
			}
		case "tmono":
			if len(fields) != 2 {
				r.Add("SOC001", pos, "", "want 'tmono <n>'")
				continue
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 {
				r.Add("SOC001", pos, "", "bad tmono %q", fields[1])
				continue
			}
			tmono, tmonoSet = n, true
		case "module":
			if len(fields) < 2 {
				r.Add("SOC001", pos, "", "module needs a name")
				continue
			}
			name := fields[1]
			if prev, dup := mods[name]; dup {
				r.Add("SOC002", pos, name,
					"duplicate module %q (first defined at line %d)", name, prev.line)
				continue
			}
			m := &socModule{name: name, line: lineNo}
			i := 2
			for i < len(fields) {
				key := fields[i]
				if key == "testeraccess" {
					i++
					continue
				}
				if i+1 >= len(fields) {
					r.Add("SOC001", pos, name, "key %q missing value", key)
					break
				}
				val := fields[i+1]
				i += 2
				switch key {
				case "children":
					m.children = strings.Split(val, ",")
					m.childLine = lineNo
				case "sc":
					m.hasSC = true
					for _, part := range strings.Split(val, ",") {
						l, err := strconv.Atoi(strings.TrimSpace(part))
						if err != nil || l < 0 {
							r.Add("SOC001", pos, name, "bad scan-chain length %q", part)
							continue
						}
						m.scanChains = append(m.scanChains, l)
					}
				case "i", "o", "b", "s", "t":
					n, err := strconv.Atoi(val)
					if err != nil || n < 0 {
						r.Add("SOC001", pos, name, "bad value %q for %q", val, key)
						continue
					}
					switch key {
					case "i":
						m.params.Inputs = n
					case "o":
						m.params.Outputs = n
					case "b":
						m.params.Bidirs = n
					case "s":
						m.params.ScanCells = n
					case "t":
						m.params.Patterns = n
					}
				default:
					r.Add("SOC001", pos, name, "unknown key %q", key)
				}
			}
			mods[name] = m
			order = append(order, name)
		case "top":
			if len(fields) != 2 {
				r.Add("SOC001", pos, "", "want 'top <name>'")
				continue
			}
			topName, topLine = fields[1], lineNo
		default:
			r.Add("SOC001", pos, "", "unknown directive %q", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		r.Add("SOC001", Pos{File: file}, "", "reading source: %v", err)
		r.Sort()
		return r
	}

	// Hierarchy: resolve children, then check single-parent, acyclicity
	// and reachability from the top.
	childOf := map[string]string{}
	for _, name := range order {
		m := mods[name]
		pos := Pos{File: file, Line: m.childLine}
		for _, k := range m.children {
			k = strings.TrimSpace(k)
			if _, ok := mods[k]; !ok {
				r.Add("SOC003", pos, name,
					"module %q references undefined child %q", name, k)
				continue
			}
			if prev, taken := childOf[k]; taken {
				r.Add("SOC004", pos, k,
					"module %q embedded by both %q and %q", k, prev, name)
				continue
			}
			childOf[k] = name
		}
	}
	if topName == "" {
		r.Add("SOC006", Pos{File: file}, "", "missing 'top' directive")
	} else if _, ok := mods[topName]; !ok {
		r.Add("SOC006", Pos{File: file, Line: topLine}, topName,
			"top module %q not defined", topName)
	} else {
		if parent, embedded := childOf[topName]; embedded {
			r.Add("SOC005", Pos{File: file, Line: topLine}, topName,
				"top module %q is embedded in module %q", topName, parent)
		}
		// Walk down from the top. Single-parent + visited-twice means a
		// cycle; afterwards, anything unvisited is an orphan.
		reach := map[string]bool{}
		var walk func(name string)
		walk = func(name string) {
			if reach[name] {
				r.Add("SOC005", Pos{File: file, Line: mods[name].line}, name,
					"hierarchy cycle through module %q", name)
				return
			}
			reach[name] = true
			for _, k := range mods[name].children {
				k = strings.TrimSpace(k)
				if _, ok := mods[k]; ok && childOf[k] == name {
					walk(k)
				}
			}
		}
		walk(topName)
		var orphans []string
		for _, n := range order {
			if !reach[n] {
				orphans = append(orphans, n)
			}
		}
		sort.Strings(orphans)
		for _, n := range orphans {
			r.Add("SOC007", Pos{File: file, Line: mods[n].line}, n,
				"module %q is not reachable from top %q", n, topName)
		}
	}

	// Per-module bookkeeping and the TDV preconditions.
	for _, name := range order {
		m := mods[name]
		pos := Pos{File: file, Line: m.line}
		checkModule(r, pos, name, m.params, m.hasSC, m.scanChains, len(m.children) > 0)
		if tmonoSet && tmono > 0 && m.params.Patterns > tmono {
			r.Add("SOC010", pos, name,
				"module %q has T=%d > T_mono=%d, violating Eq. 2 (Benefit would panic)",
				name, m.params.Patterns, tmono)
		}
	}
	if !tmonoSet || tmono == 0 {
		r.Add("SOC011", Pos{File: file}, "",
			"T_mono unmeasured: only the optimistic Eq. 3 bound TDV_mono_opt applies")
	}
	// The range rule evaluates the TDV terms of the strictly parsed profile.
	if !r.HasErrors() {
		if s, err := itc02.ParseSOCString(src); err == nil {
			checkRange(r, file, s)
		}
	}
	r.Sort()
	return r
}

// checkRange applies SOC014: every Eq. 1–8 term must fit in int64, or the
// TDV report would carry a wrapped, plausible-looking wrong number.
func checkRange(r *Report, file string, s *core.SOC) {
	if err := s.CheckRange(); err != nil {
		r.Add("SOC014", Pos{File: file}, "",
			"%s: the TDV equations cannot be evaluated", strings.TrimPrefix(err.Error(), "core: "))
	}
}

// CheckSOC lints an already-built SOC profile — the entry point for
// programmatic profiles (e.g. the committed ITC'02 tables) and the socx
// -lint preflight. Structural tree properties are guaranteed by
// construction there, so only the bookkeeping, TDV-precondition and range
// rules (SOC008–SOC014) apply. Positions carry the SOC name as the file.
func CheckSOC(s *core.SOC) *Report {
	r := &Report{}
	pos := Pos{File: s.Name}
	for _, m := range s.Modules() {
		checkModule(r, pos, m.Name, m.Params, len(m.ScanChains) > 0, m.ScanChains, len(m.Children) > 0)
		if s.TMono > 0 && m.Patterns > s.TMono {
			r.Add("SOC010", pos, m.Name,
				"module %q has T=%d > T_mono=%d, violating Eq. 2 (Benefit would panic)",
				m.Name, m.Patterns, s.TMono)
		}
	}
	if s.TMono == 0 {
		r.Add("SOC011", pos, "",
			"T_mono unmeasured: only the optimistic Eq. 3 bound TDV_mono_opt applies")
	}
	checkRange(r, s.Name, s)
	r.Sort()
	return r
}

// checkModule applies the per-module rules shared by the source-level and
// profile-level entry points.
func checkModule(r *Report, pos Pos, name string, p core.Params, hasSC bool, chains []int, hasChildren bool) {
	if hasSC {
		sum := 0
		for _, l := range chains {
			sum += l
		}
		if sum != p.ScanCells {
			r.Add("SOC008", pos, name,
				"module %q scan chains sum to %d but s=%d", name, sum, p.ScanCells)
		}
	}
	if p.ScanCells > 0 && p.Patterns == 0 {
		r.Add("SOC009", pos, name,
			"module %q has %d scan cells but t=0: the cells are never exercised", name, p.ScanCells)
	}
	if p.Patterns > 0 && p.PortBits() == 0 && p.ScanCells == 0 && !hasChildren {
		r.Add("SOC012", pos, name,
			"module %q has t=%d but no ports, scan cells or children: each pattern tests zero data",
			name, p.Patterns)
	}
	// Pre-stitched chains are hard: each needs its own TAM line, so a core
	// with more chains than the widest TAM the scheduler accepts can never
	// connect them all, whatever wrapper configuration is chosen.
	if hasSC && len(chains) > coopt.MaxTAMWidth {
		r.Add("SOC013", pos, name,
			"module %q declares %d pre-stitched scan chains but the TAM ceiling is %d: no wrapper configuration can connect them all",
			name, len(chains), coopt.MaxTAMWidth)
	}
}
