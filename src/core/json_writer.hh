/**
 * @file
 * Minimal streaming JSON writer for structured experiment results.
 *
 * Emits deterministic text: object members appear exactly in the
 * order written, doubles use the shortest round-trip representation
 * (std::to_chars), and no locale-dependent formatting is involved —
 * so two runs producing the same values produce byte-identical
 * documents, which is what the jobs=1 vs jobs=N determinism tests
 * compare.
 */

#ifndef SOFTWATT_CORE_JSON_WRITER_HH
#define SOFTWATT_CORE_JSON_WRITER_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace softwatt
{

/**
 * Streaming writer with begin/end nesting and automatic commas and
 * indentation. Misuse (a value where a key is required, unbalanced
 * end calls) trips panic(): the schema is entirely produced by our
 * own code, so a malformed document is a SoftWatt bug.
 */
class JsonWriter
{
  public:
    /**
     * @param out Destination stream.
     * @param indent Spaces per nesting level; 0 emits compact
     *        single-line JSON.
     */
    explicit JsonWriter(std::ostream &out, int indent = 2);

    /** Panics if the document is incomplete (unclosed containers). */
    ~JsonWriter();

    JsonWriter(const JsonWriter &) = delete;
    JsonWriter &operator=(const JsonWriter &) = delete;

    void beginObject();
    void endObject();
    void beginArray();
    void endArray();

    /** Start an object member; must be followed by one value. */
    JsonWriter &key(const std::string &name);

    void value(const std::string &text);
    void value(const char *text);
    void value(double number);
    void value(std::int64_t number);
    void value(std::uint64_t number);
    void value(int number) { value(std::int64_t(number)); }
    void value(unsigned number) { value(std::uint64_t(number)); }
    void value(bool flag);
    void valueNull();

    /**
     * Splice pre-rendered JSON text in as one value. @p text must be
     * a complete JSON value rendered standalone (nesting depth 0)
     * with the same indent width as this writer; its inner lines are
     * re-indented to the current depth. This is how journal-replayed
     * run objects land in the final document byte-identical to
     * freshly rendered ones.
     */
    void rawValue(const std::string &text);

    /** key(name) + value(v) in one call. */
    template <typename T>
    void
    member(const std::string &name, const T &v)
    {
        key(name);
        value(v);
    }

  private:
    enum class Scope
    {
        Object,
        Array,
    };

    std::ostream &out;
    int indentWidth;
    std::vector<Scope> stack;
    bool firstInScope = true;
    bool keyPending = false;
    bool rootWritten = false;

    /** Comma/newline/indent bookkeeping before a key or value. */
    void beforeValue();
    void beforeContainerEnd();
    void newlineIndent();
    void writeEscaped(const std::string &text);
};

/**
 * Reverse of JsonWriter's string escaping: decodes exactly the
 * escape set our own writer emits (\" \\ \/ \n \r \t and \u00xx for
 * control bytes). @return false on any sequence the writer could not
 * have produced — the caller treats the line as torn or foreign.
 */
bool jsonUnescape(const std::string &text, std::string &out);

/**
 * Find `"key":` at the top level of one compact JsonWriter line and
 * extract its JSON string value (unescaped). Escaped quotes inside
 * string values can never produce the `"key":` byte sequence, so a
 * plain substring search is exact for this self-generated format.
 * The resume journal reads its lines with these extractors; it
 * only ever parses lines this codebase wrote.
 */
bool jsonExtractString(const std::string &line,
                       const std::string &key, std::string &out);

/** jsonExtractString for an int member. */
bool jsonExtractInt(const std::string &line, const std::string &key,
                    int &out);

/** jsonExtractString for an unsigned 64-bit member. */
bool jsonExtractUint64(const std::string &line,
                       const std::string &key, std::uint64_t &out);

} // namespace softwatt

#endif // SOFTWATT_CORE_JSON_WRITER_HH
