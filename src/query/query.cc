/**
 * @file
 * Query parser and executor for the columnar event store.
 */

#include "query/query.hh"

#include <algorithm>
#include <map>

#include "common/histogram.hh"

namespace pifetch {

namespace {

/** How a column's values parse (as literals) and render (in rows). */
enum class ColType : std::uint8_t {
    Uint,     //!< plain unsigned integer
    Kind,     //!< EventKind, rendered via eventKindKey
    Counter,  //!< EventCounter, rendered via eventCounterKey
    Flag,     //!< boolean, rendered true/false
};

struct ColumnDef
{
    const char *name;
    ColType type;
};

constexpr ColumnDef slicesColumns[] = {
    {"seq", ColType::Uint},        {"instr", ColType::Uint},
    {"pc", ColType::Uint},         {"block", ColType::Uint},
    {"region", ColType::Uint},     {"kind", ColType::Kind},
    {"core", ColType::Uint},       {"trap", ColType::Uint},
    {"hit", ColType::Flag},        {"prefetched", ColType::Flag},
    {"correct", ColType::Flag},    {"window", ColType::Uint},
};

constexpr ColumnDef countersColumns[] = {
    {"seq", ColType::Uint},      {"instr", ColType::Uint},
    {"core", ColType::Uint},     {"counter", ColType::Counter},
    {"value", ColType::Uint},    {"window", ColType::Uint},
};

/** 8 blocks (512 B) per spatial region, the paper's granularity. */
constexpr unsigned regionShift = 3;

int
columnIndex(QueryTable table, const std::string &name)
{
    const ColumnDef *defs =
        table == QueryTable::Slices ? slicesColumns : countersColumns;
    const int n = table == QueryTable::Slices
                      ? static_cast<int>(std::size(slicesColumns))
                      : static_cast<int>(std::size(countersColumns));
    for (int i = 0; i < n; ++i)
        if (name == defs[i].name)
            return i;
    return -1;
}

ColType
columnType(QueryTable table, int col)
{
    return (table == QueryTable::Slices ? slicesColumns
                                        : countersColumns)[col].type;
}

std::uint64_t
cellValue(const EventStore &s, QueryTable table, int col,
          std::size_t row, InstCount window)
{
    if (table == QueryTable::Slices) {
        switch (col) {
          case 0:
            return row;
          case 1:
            return s.sliceInstr()[row];
          case 2:
            return s.slicePc()[row];
          case 3:
            return s.sliceBlock()[row];
          case 4:
            return s.sliceBlock()[row] >> regionShift;
          case 5:
            return s.sliceKind()[row];
          case 6:
            return s.sliceCore()[row];
          case 7:
            return s.sliceTrap()[row];
          case 8:
            return s.sliceHit()[row];
          case 9:
            return s.slicePrefetched()[row];
          case 10:
            return s.sliceCorrect()[row];
          case 11:
            return s.sliceInstr()[row] / window;
        }
    } else {
        switch (col) {
          case 0:
            return row;
          case 1:
            return s.counterInstr()[row];
          case 2:
            return s.counterCore()[row];
          case 3:
            return s.counterId()[row];
          case 4:
            return s.counterValue()[row];
          case 5:
            return s.counterInstr()[row] / window;
        }
    }
    panic("query: cellValue on unknown column");
}

/** Render a plain column value with the column's native type. */
ResultValue
renderValue(ColType type, std::uint64_t v)
{
    switch (type) {
      case ColType::Uint:
        return ResultValue(v);
      case ColType::Kind:
        return ResultValue(eventKindKey(static_cast<EventKind>(v)));
      case ColType::Counter:
        return ResultValue(eventCounterKey(static_cast<EventCounter>(v)));
      case ColType::Flag:
        return ResultValue(v != 0);
    }
    return ResultValue(v);
}

/** Render a literal in query text (inverse of literal parsing). */
std::string
literalText(ColType type, std::uint64_t v)
{
    switch (type) {
      case ColType::Uint:
        return std::to_string(v);
      case ColType::Kind:
        return v < numEventKinds
                   ? eventKindKey(static_cast<EventKind>(v))
                   : std::to_string(v);
      case ColType::Counter:
        return v < numEventCounters
                   ? eventCounterKey(static_cast<EventCounter>(v))
                   : std::to_string(v);
      case ColType::Flag:
        return v ? "true" : "false";
    }
    return std::to_string(v);
}

const char *
aggName(QueryAgg agg)
{
    switch (agg) {
      case QueryAgg::Count:
        return "count";
      case QueryAgg::Sum:
        return "sum";
      case QueryAgg::Min:
        return "min";
      case QueryAgg::Max:
        return "max";
      case QueryAgg::Avg:
        return "avg";
    }
    return "?";
}

std::optional<QueryAgg>
aggFromName(const std::string &s)
{
    for (QueryAgg a : {QueryAgg::Count, QueryAgg::Sum, QueryAgg::Min,
                       QueryAgg::Max, QueryAgg::Avg})
        if (s == aggName(a))
            return a;
    return std::nullopt;
}

const char *
cmpText(QueryCmp op)
{
    switch (op) {
      case QueryCmp::Eq:
        return "==";
      case QueryCmp::Ne:
        return "!=";
      case QueryCmp::Lt:
        return "<";
      case QueryCmp::Le:
        return "<=";
      case QueryCmp::Gt:
        return ">";
      case QueryCmp::Ge:
        return ">=";
    }
    return "?";
}

std::optional<QueryCmp>
cmpFromText(const std::string &s)
{
    for (QueryCmp op : {QueryCmp::Eq, QueryCmp::Ne, QueryCmp::Lt,
                        QueryCmp::Le, QueryCmp::Gt, QueryCmp::Ge})
        if (s == cmpText(op))
            return op;
    return std::nullopt;
}

bool
compare(std::uint64_t lhs, QueryCmp op, std::uint64_t rhs)
{
    switch (op) {
      case QueryCmp::Eq:
        return lhs == rhs;
      case QueryCmp::Ne:
        return lhs != rhs;
      case QueryCmp::Lt:
        return lhs < rhs;
      case QueryCmp::Le:
        return lhs <= rhs;
      case QueryCmp::Gt:
        return lhs > rhs;
      case QueryCmp::Ge:
        return lhs >= rhs;
    }
    return false;
}

bool
isWordChar(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_';
}

std::optional<std::vector<std::string>>
tokenize(const std::string &text, std::string *err)
{
    std::vector<std::string> toks;
    std::size_t i = 0;
    while (i < text.size()) {
        const char c = text[i];
        if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
            ++i;
        } else if (c == ',' || c == '(' || c == ')') {
            toks.emplace_back(1, c);
            ++i;
        } else if (c == '=' || c == '!' || c == '<' || c == '>') {
            if (i + 1 < text.size() && text[i + 1] == '=') {
                toks.push_back(text.substr(i, 2));
                i += 2;
            } else if (c == '<' || c == '>') {
                toks.emplace_back(1, c);
                ++i;
            } else {
                if (err)
                    *err = std::string("query: stray '") + c + "'";
                return std::nullopt;
            }
        } else if (isWordChar(c)) {
            std::size_t j = i;
            while (j < text.size() && isWordChar(text[j]))
                ++j;
            toks.push_back(text.substr(i, j - i));
            i = j;
        } else {
            if (err)
                *err = std::string("query: unexpected character '") + c +
                       "'";
            return std::nullopt;
        }
    }
    return toks;
}

std::optional<std::uint64_t>
parseUint(const std::string &s)
{
    if (s.empty())
        return std::nullopt;
    std::uint64_t v = 0;
    for (char c : s) {
        if (c < '0' || c > '9')
            return std::nullopt;
        const std::uint64_t next = v * 10 + static_cast<unsigned>(c - '0');
        if (next < v)
            return std::nullopt;
        v = next;
    }
    return v;
}

/** Parse a literal token against the column's type. */
std::optional<std::uint64_t>
parseLiteral(ColType type, const std::string &tok)
{
    switch (type) {
      case ColType::Uint:
        return parseUint(tok);
      case ColType::Kind:
        if (auto k = eventKindFromKey(tok))
            return static_cast<std::uint64_t>(*k);
        if (auto n = parseUint(tok); n && *n < numEventKinds)
            return n;
        return std::nullopt;
      case ColType::Counter:
        if (auto c = eventCounterFromKey(tok))
            return static_cast<std::uint64_t>(*c);
        if (auto n = parseUint(tok); n && *n < numEventCounters)
            return n;
        return std::nullopt;
      case ColType::Flag:
        if (tok == "true")
            return 1;
        if (tok == "false")
            return 0;
        if (auto n = parseUint(tok); n && *n < 2)
            return n;
        return std::nullopt;
    }
    return std::nullopt;
}

std::string
itemText(const QuerySelect &item)
{
    if (!item.aggregate)
        return item.column;
    if (item.agg == QueryAgg::Count)
        return "count()";
    return std::string(aggName(item.agg)) + "(" + item.column + ")";
}

/** Running aggregate state for one select item within one group. */
struct AggState
{
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
};

} // namespace

std::optional<Query>
parseQuery(const std::string &text, std::string *err)
{
    const auto fail = [&](const std::string &what) {
        if (err)
            *err = what;
        return std::nullopt;
    };

    auto toks = tokenize(text, err);
    if (!toks)
        return std::nullopt;
    const std::vector<std::string> &t = *toks;
    std::size_t pos = 0;

    const auto peek = [&]() -> const std::string & {
        static const std::string empty;
        return pos < t.size() ? t[pos] : empty;
    };
    const auto eat = [&](const std::string &tok) {
        if (peek() != tok)
            return false;
        ++pos;
        return true;
    };

    Query q;
    if (!eat("select"))
        return fail("query: expected 'select'");

    // Select items (column names validated after 'from').
    do {
        const std::string head = peek();
        if (head.empty() || head == "from")
            return fail("query: expected a select item");
        ++pos;
        QuerySelect item;
        if (eat("(")) {
            const auto agg = aggFromName(head);
            if (!agg)
                return fail("query: unknown aggregate '" + head + "'");
            item.aggregate = true;
            item.agg = *agg;
            if (*agg == QueryAgg::Count) {
                if (!eat(")"))
                    return fail("query: count() takes no column");
            } else {
                item.column = peek();
                if (item.column.empty() || !isWordChar(item.column[0]))
                    return fail("query: expected a column in " +
                                std::string(aggName(*agg)) + "(...)");
                ++pos;
                if (!eat(")"))
                    return fail("query: expected ')' after " +
                                std::string(aggName(*agg)) + "(" +
                                item.column);
            }
        } else {
            item.column = head;
        }
        q.select.push_back(std::move(item));
    } while (eat(","));

    if (!eat("from"))
        return fail("query: expected 'from'");
    const std::string table = peek();
    if (table == "slices") {
        q.table = QueryTable::Slices;
    } else if (table == "counters") {
        q.table = QueryTable::Counters;
    } else {
        return fail("query: unknown table '" + table +
                    "' (want slices or counters)");
    }
    ++pos;

    if (eat("where")) {
        do {
            QueryPredicate pred;
            pred.column = peek();
            const int col = columnIndex(q.table, pred.column);
            if (col < 0)
                return fail("query: unknown column '" + pred.column +
                            "' in where");
            ++pos;
            const auto op = cmpFromText(peek());
            if (!op)
                return fail("query: expected a comparison after '" +
                            pred.column + "'");
            pred.op = *op;
            ++pos;
            const std::string lit = peek();
            const auto value = parseLiteral(columnType(q.table, col), lit);
            if (!value)
                return fail("query: bad literal '" + lit +
                            "' for column '" + pred.column + "'");
            pred.value = *value;
            ++pos;
            q.where.push_back(std::move(pred));
        } while (eat("and"));
    }

    if (eat("group")) {
        if (!eat("by"))
            return fail("query: expected 'by' after 'group'");
        do {
            const std::string col = peek();
            if (columnIndex(q.table, col) < 0)
                return fail("query: unknown column '" + col +
                            "' in group by");
            ++pos;
            q.groupBy.push_back(col);
        } while (eat(","));
    }

    if (eat("window")) {
        const auto n = parseUint(peek());
        if (!n || *n == 0)
            return fail("query: window wants a positive instruction "
                        "count");
        q.window = *n;
        ++pos;
    }

    if (pos != t.size())
        return fail("query: trailing input at '" + peek() + "'");

    // Validate select / group-by columns now that the table is known.
    for (const QuerySelect &item : q.select)
        if (!(item.aggregate && item.agg == QueryAgg::Count) &&
            columnIndex(q.table, item.column) < 0)
            return fail("query: unknown column '" + item.column + "'");

    return q;
}

std::string
queryText(const Query &q)
{
    std::string out = "select ";
    for (std::size_t i = 0; i < q.select.size(); ++i) {
        if (i)
            out += ", ";
        out += itemText(q.select[i]);
    }
    out += " from ";
    out += q.table == QueryTable::Slices ? "slices" : "counters";
    for (std::size_t i = 0; i < q.where.size(); ++i) {
        out += i ? " and " : " where ";
        const QueryPredicate &p = q.where[i];
        const int col = columnIndex(q.table, p.column);
        const ColType type =
            col >= 0 ? columnType(q.table, col) : ColType::Uint;
        out += p.column;
        out += " ";
        out += cmpText(p.op);
        out += " ";
        out += literalText(type, p.value);
    }
    for (std::size_t i = 0; i < q.groupBy.size(); ++i) {
        out += i ? ", " : " group by ";
        out += q.groupBy[i];
    }
    if (q.window) {
        out += " window ";
        out += std::to_string(q.window);
    }
    return out;
}

std::optional<ResultValue>
runQuery(const EventStore &store, const Query &q, std::string *err)
{
    const auto fail = [&](const std::string &what) {
        if (err)
            *err = what;
        return std::nullopt;
    };

    if (q.select.empty())
        return fail("query: empty select list");

    // Resolve every referenced column up front (hand-built Query
    // structs take the same path as parsed ones).
    const auto resolve = [&](const std::string &name,
                             int &out) -> std::optional<std::string> {
        out = columnIndex(q.table, name);
        if (out < 0)
            return "query: unknown column '" + name + "'";
        const bool isWindow =
            std::string((q.table == QueryTable::Slices
                             ? slicesColumns
                             : countersColumns)[out].name) == "window";
        if (isWindow && q.window == 0)
            return std::string("query: the window column needs a "
                               "'window N' clause");
        return std::nullopt;
    };

    bool anyAggregate = false;
    std::vector<int> selectCols(q.select.size(), -1);
    for (std::size_t i = 0; i < q.select.size(); ++i) {
        const QuerySelect &item = q.select[i];
        anyAggregate = anyAggregate || item.aggregate;
        if (item.aggregate && item.agg == QueryAgg::Count)
            continue;
        if (auto e = resolve(item.column, selectCols[i]))
            return fail(*e);
    }
    std::vector<int> groupCols(q.groupBy.size(), -1);
    for (std::size_t i = 0; i < q.groupBy.size(); ++i)
        if (auto e = resolve(q.groupBy[i], groupCols[i]))
            return fail(*e);
    std::vector<int> whereCols(q.where.size(), -1);
    for (std::size_t i = 0; i < q.where.size(); ++i)
        if (auto e = resolve(q.where[i].column, whereCols[i]))
            return fail(*e);

    if (!q.groupBy.empty() && !anyAggregate)
        return fail("query: group by needs an aggregate select item");
    // Map plain select items onto group-by positions when aggregating.
    std::vector<std::size_t> plainGroupSlot(q.select.size(), 0);
    if (anyAggregate) {
        for (std::size_t i = 0; i < q.select.size(); ++i) {
            if (q.select[i].aggregate)
                continue;
            const auto it = std::find(q.groupBy.begin(), q.groupBy.end(),
                                      q.select[i].column);
            if (it == q.groupBy.end())
                return fail("query: plain select item '" +
                            q.select[i].column +
                            "' must appear in group by");
            plainGroupSlot[i] =
                static_cast<std::size_t>(it - q.groupBy.begin());
        }
    }

    const std::size_t rows = q.table == QueryTable::Slices
                                 ? store.sliceCount()
                                 : store.counterCount();
    const auto cell = [&](int col, std::size_t row) {
        return cellValue(store, q.table, col, row, q.window);
    };
    const auto passes = [&](std::size_t row) {
        for (std::size_t i = 0; i < q.where.size(); ++i)
            if (!compare(cell(whereCols[i], row), q.where[i].op,
                         q.where[i].value))
                return false;
        return true;
    };

    std::vector<std::string> columns;
    columns.reserve(q.select.size());
    for (const QuerySelect &item : q.select)
        columns.push_back(itemText(item));
    ResultValue table = makeTable(queryText(q), columns);
    ResultValue *out = table.find("rows");

    if (!anyAggregate) {
        // Projection: matching rows in record order.
        for (std::size_t row = 0; row < rows; ++row) {
            if (!passes(row))
                continue;
            ResultValue r = ResultValue::array();
            for (std::size_t i = 0; i < q.select.size(); ++i)
                r.push(renderValue(columnType(q.table, selectCols[i]),
                                   cell(selectCols[i], row)));
            out->push(std::move(r));
        }
        return table;
    }

    // Aggregation: std::map keys give deterministic lexicographic
    // group order regardless of record order.
    std::map<std::vector<std::uint64_t>, std::vector<AggState>> groups;
    for (std::size_t row = 0; row < rows; ++row) {
        if (!passes(row))
            continue;
        std::vector<std::uint64_t> key;
        key.reserve(groupCols.size());
        for (int col : groupCols)
            key.push_back(cell(col, row));
        const auto it =
            groups.try_emplace(std::move(key), q.select.size()).first;
        for (std::size_t i = 0; i < q.select.size(); ++i) {
            const QuerySelect &item = q.select[i];
            if (!item.aggregate)
                continue;
            AggState &st = it->second[i];
            const std::uint64_t v = item.agg == QueryAgg::Count
                                        ? 0
                                        : cell(selectCols[i], row);
            if (st.count == 0) {
                st.min = v;
                st.max = v;
            } else {
                st.min = std::min(st.min, v);
                st.max = std::max(st.max, v);
            }
            ++st.count;
            st.sum += v;
        }
    }

    for (const auto &[key, states] : groups) {
        ResultValue r = ResultValue::array();
        for (std::size_t i = 0; i < q.select.size(); ++i) {
            const QuerySelect &item = q.select[i];
            if (!item.aggregate) {
                const std::size_t slot = plainGroupSlot[i];
                r.push(renderValue(columnType(q.table, groupCols[slot]),
                                   key[slot]));
                continue;
            }
            const AggState &st = states[i];
            switch (item.agg) {
              case QueryAgg::Count:
                r.push(st.count);
                break;
              case QueryAgg::Sum:
                r.push(st.sum);
                break;
              case QueryAgg::Min:
                r.push(st.min);
                break;
              case QueryAgg::Max:
                r.push(st.max);
                break;
              case QueryAgg::Avg:
                r.push(static_cast<double>(st.sum) /
                       static_cast<double>(st.count));
                break;
            }
        }
        out->push(std::move(r));
    }
    return table;
}

ResultValue
missStreamLengthTable(const EventStore &store)
{
    Log2Histogram streams(32);
    Log2Histogram missWeighted(32);
    std::vector<std::uint64_t> run;

    const auto endStream = [&](std::uint64_t &len) {
        if (len == 0)
            return;
        streams.add(len, 1.0);
        missWeighted.add(len, static_cast<double>(len));
        len = 0;
    };

    const std::size_t n = store.sliceCount();
    for (std::size_t i = 0; i < n; ++i) {
        if (store.sliceKind()[i] !=
                static_cast<std::uint8_t>(EventKind::Fetch) ||
            !store.sliceCorrect()[i])
            continue;
        const unsigned core = store.sliceCore()[i];
        if (core >= run.size())
            run.resize(core + 1, 0);
        if (!store.sliceHit()[i])
            ++run[core];
        else
            endStream(run[core]);
    }
    for (std::uint64_t &len : run)
        endStream(len);

    ResultValue table =
        makeTable("Miss-stream lengths (correct-path fetch slices)",
                  {"log2_len", "streams", "misses", "stream_fraction",
                   "miss_fraction"});
    ResultValue *rows = table.find("rows");
    const unsigned hi =
        std::max(streams.highestBucket(), missWeighted.highestBucket());
    if (streams.totalWeight() > 0.0) {
        for (unsigned b = 0; b <= hi; ++b) {
            ResultValue r = ResultValue::array();
            r.push(b);
            r.push(static_cast<std::uint64_t>(streams.weightAt(b)));
            r.push(static_cast<std::uint64_t>(missWeighted.weightAt(b)));
            r.push(streams.fractionAt(b));
            r.push(missWeighted.fractionAt(b));
            rows->push(std::move(r));
        }
    }
    return table;
}

} // namespace pifetch
