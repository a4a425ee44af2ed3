/**
 * @file
 * softwatt-analyze: a declaration-aware whole-program contract
 * analyzer for the SoftWatt tree.
 *
 * Where softwatt-lint bans individual tokens file-by-file, this tool
 * parses lightweight structure out of the sources — class data
 * members, saveState/loadState bodies, config-key call sites,
 * include edges — and checks the cross-cutting contracts the repo's
 * reproducibility story rests on:
 *
 *   checkpoint-coverage   Every data member of a class with a
 *                         saveState/loadState pair must be
 *                         referenced in one of the two bodies, or
 *                         carry a "// ckpt:derived" annotation
 *                         blessing it as recomputed/config-derived
 *                         state. Catches the classic drift bug: a
 *                         new field silently corrupting checkpoints
 *                         until a restore test happens to notice.
 *
 *   save-load-symmetry    The ordered sequence of ChunkWriter calls
 *                         (u8/u16/u32/u64/b/f64/str, plus nested
 *                         saveState delegations) in saveState must
 *                         mirror the ChunkReader sequence in
 *                         loadState position by position. Also
 *                         pairs free helpers saveX/loadX by suffix.
 *
 *   config-key            Every configuration key read in src/
 *                         (getString/getInt/getDouble/getBool with a
 *                         literal key, or a literal key passed next
 *                         to an `args`/`config` argument) must be
 *                         documented as "key=" in EXPERIMENTS.md;
 *                         keys read inside fromArgs (the runner
 *                         keys, validated eagerly there) must
 *                         additionally appear in usageText().
 *
 *   layer-dag             src/ subdirectories may only include
 *                         downward per the declared dependency DAG
 *                         (sim at the bottom; core at the top; no
 *                         power->os edges and the like).
 *
 *   durability-io         Durability-owning files (checkpoint,
 *                         journal, system autosave) must not
 *                         bypass the host-I/O seam with raw
 *                         ::rename()/::remove(), ofstream or fopen;
 *                         and anywhere in src/, the IoStatus
 *                         returned by hostWriteFileAtomic/
 *                         hostRename/hostRemove/hostSyncDir must
 *                         not be discarded in statement position
 *                         (hostRemoveBestEffort is the sanctioned
 *                         discard for may-not-exist cleanup).
 *
 * The parser is deliberately lightweight — no preprocessor, no real
 * C++ grammar — but declaration-aware enough for this codebase's
 * house style; it shares the masking/suppression substrate in
 * tools/common with softwatt-lint.
 */

#ifndef SOFTWATT_TOOLS_ANALYZE_ANALYZE_HH
#define SOFTWATT_TOOLS_ANALYZE_ANALYZE_HH

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/scanner.hh"

namespace softwatt::analyze
{

using tools::Finding;

/** One file handed to the analyzer (repo-relative path + contents). */
struct SourceText
{
    std::string path;
    std::string text;
};

/** Everything the whole-program passes need. */
struct AnalyzerInput
{
    std::vector<SourceText> files;

    /**
     * Contents of EXPERIMENTS.md (the configuration-key reference);
     * empty disables the documentation half of the config-key rule.
     */
    std::string experimentsDoc;
};

/**
 * The declared src/ layer DAG: for each layer, the set of layers its
 * files may #include from (own layer always allowed). Exposed so the
 * docs test and DESIGN.md stay in sync with the enforced graph.
 */
const std::map<std::string, std::set<std::string>> &layerDag();

/**
 * Run every rule over @p input and return the findings sorted by
 * (path, line, rule). Baseline filtering is the caller's job (see
 * tools::Suppressions::apply), so stale baseline entries can be
 * reported.
 */
std::vector<Finding> analyzeSources(const AnalyzerInput &input);

} // namespace softwatt::analyze

#endif // SOFTWATT_TOOLS_ANALYZE_ANALYZE_HH
