"""Reference category-law check: the all-triples loop that
`fincat.check_category` ran before it went through `equivalence._check_table`.
It visits every pair and every triple of morphisms, so its verdicts and law
findings are the ones the table routine must reproduce, under `RENAMED`."""

from deglab.report import ValidationReport

# the reference's law names -> `check_category`'s
RENAMED = {
    "left-identity": "composition-left-identity",
    "right-identity": "composition-right-identity",
    "associativity": "composition-associativity",
}


def reference_check_category(c) -> ValidationReport:
    """Definedness pattern, identity laws, associativity over all triples."""
    report = ValidationReport("category")
    m = len(c.morphisms)
    for a, i in enumerate(c.identities):
        if c.morphisms[i] != (a, a):
            report.add_structural("identity-endpoints", (a,))
    for g, (sg, tg) in enumerate(c.morphisms):
        for f, (sf, tf) in enumerate(c.morphisms):
            h = c.comp[g][f]
            if (h is not None) != (tf == sg):
                report.add_structural("composition-domain", (g, f))
            elif h is not None and c.morphisms[h] != (sf, tg):
                report.add_structural("composition-endpoints", (g, f))
    if not report.well_formed:
        return report
    for f, (s, t) in enumerate(c.morphisms):
        if c.comp[c.identities[t]][f] != f:
            report.add("left-identity", (f,))
        if c.comp[f][c.identities[s]] != f:
            report.add("right-identity", (f,))
    for g in range(m):
        for f in range(m):
            if c.comp[g][f] is None:
                continue
            for h in range(m):
                if c.comp[h][g] is None:
                    continue
                if c.comp[h][c.comp[g][f]] != c.comp[c.comp[h][g]][f]:
                    report.add("associativity", (h, g, f))
    return report
