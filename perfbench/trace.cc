/**
 * @file
 * The benchmark's span tracer and its Chrome trace-event writer.
 */

#include <algorithm>
#include <fstream>

#include "core/json_writer.hh"

#include "bench.hh"

namespace perfbench
{

Tracer::Tracer(bool enabled) : on(enabled), origin(Clock::now()) {}

double
Tracer::nowUs() const
{
    return std::chrono::duration<double, std::micro>(Clock::now() -
                                                     origin)
        .count();
}

Tracer::Scope
Tracer::span(const char *layer, const std::string &name,
             const std::string &run)
{
    if (!on)
        return Scope(nullptr, -1);
    Span s;
    s.name = name;
    s.layer = layer;
    s.run = run;
    s.id = int(all.size());
    s.parent = open.empty() ? -1 : open.back();
    if (s.run.empty() && s.parent >= 0)
        s.run = all[s.parent].run;
    s.startUs = nowUs();
    all.push_back(std::move(s));
    open.push_back(all.back().id);
    return Scope(this, all.back().id);
}

void
Tracer::close(int index)
{
    all[index].endUs = nowUs();
    // Spans close in LIFO order: each Scope lives in a block nested
    // inside its parent's.
    if (!open.empty() && open.back() == index)
        open.pop_back();
}

Tracer::Scope::~Scope()
{
    if (tracer)
        tracer->close(index);
}

std::map<std::string, double>
Tracer::selfMs() const
{
    std::vector<double> childUs(all.size(), 0.0);
    for (const Span &s : all) {
        if (s.parent >= 0)
            childUs[s.parent] += s.endUs - s.startUs;
    }
    std::map<std::string, double> self;
    for (const Span &s : all) {
        double us = (s.endUs - s.startUs) - childUs[s.id];
        self[s.layer] += std::max(0.0, us) / 1e3;
    }
    return self;
}

bool
Tracer::writeChrome(const std::string &path,
                    const std::string &metadata_json) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    {
        softwatt::JsonWriter json(out);
        json.beginObject();
        json.member("displayTimeUnit", "ms");
        json.key("otherData");
        json.rawValue(metadata_json);
        json.key("traceEvents");
        json.beginArray();
        for (const Span &s : all) {
            json.beginObject();
            json.member("name", s.name);
            json.member("cat", s.layer);
            json.member("ph", "X");
            json.member("ts", s.startUs);
            json.member("dur", s.endUs - s.startUs);
            json.member("pid", 1);
            json.member("tid", 1);
            json.key("args");
            json.beginObject();
            json.member("span", s.id);
            json.member("parent", s.parent);
            json.member("run", s.run);
            json.endObject();
            json.endObject();
        }
        json.endArray();
        json.endObject();
    }
    out << '\n';
    return bool(out);
}

} // namespace perfbench
