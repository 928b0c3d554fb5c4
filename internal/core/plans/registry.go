package plans

// This file records the plan signatures of the paper's Fig. 2 — the
// "transparency" benefit of the operator framework (§2.2, §6.3): every
// algorithm is a sequence of operators drawn from the five classes
// (ops.Class), so similarities and differences between algorithms are
// visible at a glance. The signature notation follows the paper:
// operator abbreviations from Fig. 1, I:(..) for iteration, TP[..] for
// a subplan run per split partition; every plan implicitly begins with
// TV (T-Vectorize).

// PlanInfo describes one plan of Fig. 2.
type PlanInfo struct {
	ID        int
	Citation  string
	Name      string
	Signature string
	// New marks the plans first introduced by the EKTELO paper (§9).
	New bool
	// PrivacyCritical lists the Private→Public operators the plan calls —
	// the only code that must be vetted for its privacy proof (§6.3).
	PrivacyCritical []string
}

// Registry is the Fig. 2 table. Plans #1–#13 re-implement the
// literature; #14–#20 are the paper's new recombinations.
var Registry = []PlanInfo{
	{1, "Dwork et al. 2006", "Identity", "SI LM", false, []string{"VectorLaplace"}},
	{2, "Xiao et al. 2010", "Privelet", "SP LM LS", false, []string{"VectorLaplace"}},
	{3, "Hay et al. 2010", "Hierarchical (H2)", "SH2 LM LS", false, []string{"VectorLaplace"}},
	{4, "Qardaji et al. 2013", "Hierarchical Opt (HB)", "SHB LM LS", false, []string{"VectorLaplace"}},
	{5, "Li et al. 2014", "Greedy-H", "SG LM LS", false, []string{"VectorLaplace"}},
	{6, "-", "Uniform", "ST LM LS", false, []string{"VectorLaplace"}},
	{7, "Hardt et al. 2012", "MWEM", "I:( SW LM MW )", false, []string{"WorstApprox", "VectorLaplace"}},
	{8, "Zhang et al. 2014", "AHP", "PA TR SI LM LS", false, []string{"VectorLaplace"}},
	{9, "Li et al. 2014", "DAWA", "PD TR SG LM LS", false, []string{"VectorLaplace"}},
	{10, "Cormode et al. 2012", "Quadtree", "SQ LM LS", false, []string{"VectorLaplace"}},
	{11, "Qardaji et al. 2013", "UniformGrid", "SU LM LS", false, []string{"VectorLaplace"}},
	{12, "Qardaji et al. 2013", "AdaptiveGrid", "SU LM LS PU TP[ SA LM ] LS", false, []string{"VectorLaplace"}},
	{13, "McKenna et al. 2018", "HDMM", "SHD LM LS", false, []string{"VectorLaplace"}},
	{14, "NEW", "DAWA-Striped", "PS TP[ PD TR SG LM ] LS", true, []string{"VectorLaplace"}},
	{15, "NEW", "HB-Striped", "PS TP[ SHB LM ] LS", true, []string{"VectorLaplace"}},
	{16, "NEW", "HB-Striped_kron", "SS LM LS", true, []string{"VectorLaplace"}},
	{17, "NEW", "PrivBayesLS", "SPB LM LS", true, []string{"NoisyMax", "VectorLaplace"}},
	{18, "NEW", "MWEM variant b", "I:( SW SH2 LM MW )", true, []string{"WorstApprox", "VectorLaplace"}},
	{19, "NEW", "MWEM variant c", "I:( SW LM NLS )", true, []string{"WorstApprox", "VectorLaplace"}},
	{20, "NEW", "MWEM variant d", "I:( SW SH2 LM NLS )", true, []string{"WorstApprox", "VectorLaplace"}},
}

// PrivacyCriticalOperators returns the de-duplicated set of
// Private→Public operators used across all registered plans — the code
// that must be vetted once to certify every plan (the paper's
// reduced-verification-effort argument, §6.3).
func PrivacyCriticalOperators() []string {
	seen := map[string]bool{}
	var out []string
	for _, p := range Registry {
		for _, op := range p.PrivacyCritical {
			if !seen[op] {
				seen[op] = true
				out = append(out, op)
			}
		}
	}
	return out
}
