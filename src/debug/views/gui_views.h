#ifndef GRAFT_DEBUG_VIEWS_GUI_VIEWS_H_
#define GRAFT_DEBUG_VIEWS_GUI_VIEWS_H_

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/json_writer.h"
#include "common/string_util.h"
#include "debug/debug_session.h"
#include "debug/vertex_trace.h"
#include "debug/views/text_table.h"
#include "debug/views/view_api.h"
#include "io/trace_store.h"

namespace graft {
namespace debug {

/// Everything the Graft GUI shows for one superstep (§3.2): the captured
/// vertex contexts, the master context, and the M/V/E status flags.
template <pregel::JobTraits Traits>
struct SuperstepSnapshot {
  int64_t superstep = 0;
  std::vector<VertexTrace<Traits>> traces;
  std::optional<MasterTrace> master;

  bool AnyMessageViolation() const {
    for (const auto& t : traces) {
      if ((t.reasons & kReasonMessageValue) != 0) return true;
    }
    return false;
  }
  bool AnyVertexValueViolation() const {
    for (const auto& t : traces) {
      if ((t.reasons & kReasonVertexValue) != 0) return true;
    }
    return false;
  }
  bool AnyException() const {
    for (const auto& t : traces) {
      if (t.exception.has_value()) return true;
    }
    return false;
  }
};

template <pregel::JobTraits Traits>
Result<SuperstepSnapshot<Traits>> LoadSnapshot(
    const DebugSession<Traits>& session, int64_t superstep) {
  SuperstepSnapshot<Traits> snapshot;
  snapshot.superstep = superstep;
  GRAFT_ASSIGN_OR_RETURN(snapshot.traces, session.VertexTraces(superstep));
  auto master = session.Master(superstep);
  if (master.ok()) snapshot.master = std::move(master).value();
  return snapshot;
}

namespace internal_views {

inline std::string StatusFlags(bool msg_violation, bool vv_violation,
                               bool exception) {
  // The three boxes on the left of the paper's GUI: M (message constraint),
  // V (vertex-value constraint), E (exception); "OK" = green, "RED" = red.
  return StrFormat("[M] %s   [V] %s   [E] %s",
                   msg_violation ? "RED" : "OK",
                   vv_violation ? "RED" : "OK", exception ? "RED" : "OK");
}

inline std::string AggregatorLine(
    const std::map<std::string, pregel::AggValue>& aggs) {
  if (aggs.empty()) return "Aggregators: (none)";
  std::string out = "Aggregators:";
  for (const auto& [name, value] : aggs) {
    out += " " + name + "=" + value.ToString();
  }
  return out;
}

}  // namespace internal_views

/// Builds a paginated ViewResult straight from a loaded snapshot — the
/// bridge between the snapshot world (GraftGui, exports) and the structured
/// ViewRequest/ViewResult API in view_api.h. `request.superstep` is ignored;
/// the snapshot's superstep wins.
template <pregel::JobTraits Traits>
ViewResult BuildView(const SuperstepSnapshot<Traits>& snapshot,
                     const std::string& job_id, ViewRequest request) {
  request.superstep = snapshot.superstep;
  return BuildViewFromTraces(snapshot.traces, snapshot.master, job_id,
                             request);
}

/// Graphviz DOT export of the node-link view — captured vertices as labeled
/// nodes (dimmed when inactive, paper-style), uncaptured neighbors as small
/// id-only nodes.
template <pregel::JobTraits Traits>
std::string ExportNodeLinkDot(const SuperstepSnapshot<Traits>& snapshot) {
  std::set<VertexId> captured;
  for (const auto& t : snapshot.traces) captured.insert(t.id);
  std::string out = "digraph graft {\n  rankdir=LR;\n";
  std::set<VertexId> emitted_small;
  for (const auto& t : snapshot.traces) {
    out += StrFormat(
        "  v%lld [shape=box, style=%s, label=\"%lld\\n%s\"];\n",
        static_cast<long long>(t.id), t.halted_after ? "dashed" : "solid",
        static_cast<long long>(t.id),
        JsonWriter::Escape(t.value_after.ToString()).c_str());
    for (const auto& e : t.edges) {
      if (captured.count(e.target) == 0 &&
          emitted_small.insert(e.target).second) {
        out += StrFormat("  v%lld [shape=point, label=\"%lld\"];\n",
                         static_cast<long long>(e.target),
                         static_cast<long long>(e.target));
      }
      out += StrFormat("  v%lld -> v%lld;\n", static_cast<long long>(t.id),
                       static_cast<long long>(e.target));
    }
  }
  out += "}\n";
  return out;
}

/// Full-fidelity JSON export of a superstep snapshot, the interchange format
/// a browser front-end (the paper's actual GUI) would consume.
template <pregel::JobTraits Traits>
std::string ExportSnapshotJson(const SuperstepSnapshot<Traits>& snapshot,
                               const std::string& job_id) {
  JsonWriter w;
  w.BeginObject();
  w.KV("job", job_id);
  w.KV("superstep", snapshot.superstep);
  w.KV("message_violation", snapshot.AnyMessageViolation());
  w.KV("vertex_value_violation", snapshot.AnyVertexValueViolation());
  w.KV("exception", snapshot.AnyException());
  if (snapshot.master.has_value()) {
    w.Key("master");
    w.BeginObject();
    w.KV("halted", snapshot.master->halted);
    w.Key("aggregators");
    w.BeginObject();
    for (const auto& [name, value] : snapshot.master->aggregators_after) {
      w.KV(name, value.ToString());
    }
    w.EndObject();
    w.EndObject();
  }
  w.Key("vertices");
  w.BeginArray();
  for (const auto& t : snapshot.traces) {
    w.BeginObject();
    w.KV("id", t.id);
    w.KV("reasons", CaptureReasonsToString(t.reasons));
    w.KV("value_before", t.value_before.ToString());
    w.KV("value_after", t.value_after.ToString());
    w.KV("inactive", t.halted_after);
    w.Key("edges");
    w.BeginArray();
    for (const auto& e : t.edges) {
      w.BeginObject();
      w.KV("target", e.target);
      w.KV("value", e.value.ToString());
      w.EndObject();
    }
    w.EndArray();
    w.Key("incoming");
    w.BeginArray();
    for (const auto& m : t.incoming) w.String(m.ToString());
    w.EndArray();
    w.Key("outgoing");
    w.BeginArray();
    for (const auto& [target, m] : t.outgoing) {
      w.BeginObject();
      w.KV("target", target);
      w.KV("message", m.ToString());
      w.EndObject();
    }
    w.EndArray();
    w.Key("violations");
    w.BeginArray();
    for (const auto& v : t.violations) w.String(v.detail);
    w.EndArray();
    if (t.exception.has_value()) {
      w.KV("exception", t.exception->type + ": " + t.exception->message);
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.TakeString();
}

/// Self-contained HTML page for a superstep snapshot — the closest artifact
/// to the paper's browser GUI screenshots (Figures 3-5): the M/V/E status
/// bar, the aggregator panel, the tabular view, and the violations table.
template <pregel::JobTraits Traits>
std::string ExportSnapshotHtml(const SuperstepSnapshot<Traits>& snapshot,
                               const std::string& job_id) {
  auto esc = [](const std::string& s) {
    std::string out;
    for (char c : s) {
      switch (c) {
        case '<': out += "&lt;"; break;
        case '>': out += "&gt;"; break;
        case '&': out += "&amp;"; break;
        default: out.push_back(c);
      }
    }
    return out;
  };
  auto flag = [](bool red) {
    return red ? "<span class=\"red\">RED</span>"
               : "<span class=\"ok\">OK</span>";
  };
  std::string html =
      "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n"
      "<title>Graft — " + esc(job_id) + "</title>\n"
      "<style>body{font-family:monospace}table{border-collapse:collapse}"
      "td,th{border:1px solid #999;padding:2px 6px}"
      ".red{color:#fff;background:#c00;padding:1px 4px}"
      ".ok{color:#fff;background:#090;padding:1px 4px}"
      ".inactive{color:#999}</style></head><body>\n";
  html += StrFormat("<h1>Graft GUI — job '%s' — superstep %lld</h1>\n",
                    esc(job_id).c_str(),
                    static_cast<long long>(snapshot.superstep));
  html += "<p>[M] " + std::string(flag(snapshot.AnyMessageViolation())) +
          " [V] " + flag(snapshot.AnyVertexValueViolation()) + " [E] " +
          flag(snapshot.AnyException()) + "</p>\n";
  if (snapshot.master.has_value()) {
    html += "<h2>Aggregators</h2><table><tr><th>name</th><th>value</th></tr>";
    for (const auto& [name, value] : snapshot.master->aggregators_after) {
      html += "<tr><td>" + esc(name) + "</td><td>" +
              esc(value.ToString()) + "</td></tr>";
    }
    html += "</table>\n";
  }
  html += "<h2>Captured vertices</h2>\n<table><tr><th>id</th><th>value</th>"
          "<th>edges</th><th>in</th><th>out</th><th>reasons</th></tr>\n";
  for (const auto& t : snapshot.traces) {
    html += StrFormat("<tr%s><td>%lld</td><td>%s</td><td>%zu</td>"
                      "<td>%zu</td><td>%zu</td><td>%s</td></tr>\n",
                      t.halted_after ? " class=\"inactive\"" : "",
                      static_cast<long long>(t.id),
                      esc(t.value_after.ToString()).c_str(), t.edges.size(),
                      t.incoming.size(), t.outgoing.size(),
                      CaptureReasonsToString(t.reasons).c_str());
  }
  html += "</table>\n<h2>Violations &amp; exceptions</h2>\n"
          "<table><tr><th>kind</th><th>vertex</th><th>detail</th></tr>\n";
  for (const auto& t : snapshot.traces) {
    for (const auto& v : t.violations) {
      html += StrFormat(
          "<tr><td>%s</td><td>%lld</td><td>%s</td></tr>\n",
          v.kind == ViolationInfo::Kind::kVertexValue ? "vertex-value"
                                                      : "message-value",
          static_cast<long long>(v.source), esc(v.detail).c_str());
    }
    if (t.exception.has_value()) {
      html += StrFormat("<tr><td>exception</td><td>%lld</td><td>%s</td></tr>\n",
                        static_cast<long long>(t.id),
                        esc(t.exception->message).c_str());
    }
  }
  html += "</table>\n</body></html>\n";
  return html;
}

/// Stateful wrapper bundling the three views with Next/Previous superstep
/// stepping — the terminal incarnation of the paper's browser GUI.
template <pregel::JobTraits Traits>
class GraftGui {
 public:
  GraftGui(const TraceStore* store, std::string job_id)
      : job_id_(std::move(job_id)) {
    auto session = DebugSession<Traits>::Open(store, job_id_);
    if (session.ok()) {
      session_.emplace(std::move(session).value());
      supersteps_ = session_->supersteps();
    } else {
      // Corrupt manifest: degrade to the directory scan so the views still
      // list the captured supersteps; snapshots report the open error.
      open_status_ = session.status();
      supersteps_ = ListCapturedSupersteps(*store, job_id_);
    }
  }

  bool HasCaptures() const { return !supersteps_.empty(); }
  const std::vector<int64_t>& supersteps() const { return supersteps_; }
  int64_t current_superstep() const {
    return supersteps_.empty() ? -1 : supersteps_[cursor_];
  }

  /// "Play supersteps": move the cursor. Clamped at the ends.
  void SeekFirst() { cursor_ = 0; }
  void SeekLast() {
    cursor_ = supersteps_.empty() ? 0 : supersteps_.size() - 1;
  }
  bool NextSuperstep() {
    if (cursor_ + 1 >= supersteps_.size()) return false;
    ++cursor_;
    return true;
  }
  bool PreviousSuperstep() {
    if (cursor_ == 0) return false;
    --cursor_;
    return true;
  }
  Status SeekTo(int64_t superstep) {
    for (size_t i = 0; i < supersteps_.size(); ++i) {
      if (supersteps_[i] == superstep) {
        cursor_ = i;
        return Status::OK();
      }
    }
    return Status::NotFound("no captures in superstep " +
                            std::to_string(superstep));
  }

  Result<SuperstepSnapshot<Traits>> Snapshot() const {
    if (supersteps_.empty()) {
      return Status::NotFound("job '" + job_id_ + "' has no captures");
    }
    if (!session_.has_value()) return open_status_;
    return LoadSnapshot(*session_, current_superstep());
  }

  /// Structured view of the current superstep — the GraftGui entry point
  /// into the ViewRequest/ViewResult API (request.superstep is overridden by
  /// the cursor).
  Result<ViewResult> View(const ViewRequest& request) const {
    GRAFT_ASSIGN_OR_RETURN(auto snapshot, Snapshot());
    return BuildView(snapshot, job_id_, request);
  }

  Result<std::string> NodeLinkView() const {
    ViewRequest request;
    request.kind = ViewKind::kNodeLink;
    request.limit = kViewNoLimit;
    GRAFT_ASSIGN_OR_RETURN(ViewResult view, View(request));
    return view.ToText();
  }
  Result<std::string> TabularView(const std::string& search = "") const {
    ViewRequest request;
    request.kind = ViewKind::kTabular;
    request.limit = kViewNoLimit;
    request.search = search;
    GRAFT_ASSIGN_OR_RETURN(ViewResult view, View(request));
    return view.ToText();
  }
  Result<std::string> ViolationsView() const {
    ViewRequest request;
    request.kind = ViewKind::kViolations;
    request.limit = kViewNoLimit;
    GRAFT_ASSIGN_OR_RETURN(ViewResult view, View(request));
    return view.ToText();
  }
  Result<std::string> DotExport() const {
    GRAFT_ASSIGN_OR_RETURN(auto snapshot, Snapshot());
    return ExportNodeLinkDot(snapshot);
  }
  Result<std::string> JsonExport() const {
    GRAFT_ASSIGN_OR_RETURN(auto snapshot, Snapshot());
    return ExportSnapshotJson(snapshot, job_id_);
  }
  Result<std::string> HtmlExport() const {
    GRAFT_ASSIGN_OR_RETURN(auto snapshot, Snapshot());
    return ExportSnapshotHtml(snapshot, job_id_);
  }

 private:
  std::string job_id_;
  std::optional<DebugSession<Traits>> session_;
  Status open_status_;  // why session_ is empty, when it is
  std::vector<int64_t> supersteps_;
  size_t cursor_ = 0;
};

}  // namespace debug
}  // namespace graft

#endif  // GRAFT_DEBUG_VIEWS_GUI_VIEWS_H_
