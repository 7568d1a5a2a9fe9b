#include "apps/minisql/parser.h"

#include <cctype>
#include <cstdlib>

namespace cubicleos::minisql {

namespace {

// --- tokenizer --------------------------------------------------------

enum class Tok : uint8_t {
    kEnd,
    kIdent,
    kKeyword,
    kInt,
    kReal,
    kString,
    kSymbol, ///< punctuation / operator, text in Token::text
};

struct Token {
    Tok kind = Tok::kEnd;
    std::string text;   ///< identifier (as written), keyword (upper),
                        ///< symbol characters
    int64_t intValue = 0;
    double realValue = 0;
};

const char *kKeywords[] = {
    "SELECT", "FROM", "WHERE", "GROUP", "ORDER", "BY", "LIMIT",
    "INSERT", "INTO", "VALUES", "UPDATE", "SET", "DELETE", "CREATE",
    "TABLE", "INDEX", "UNIQUE", "DROP", "ON", "JOIN", "INNER", "AND",
    "OR", "NOT", "LIKE", "BETWEEN", "IN", "AS", "ASC", "DESC", "NULL",
    "PRIMARY", "KEY", "INTEGER", "INT", "REAL", "DOUBLE", "FLOAT",
    "TEXT", "VARCHAR", "CHAR", "BEGIN", "COMMIT", "ROLLBACK",
    "TRANSACTION", "PRAGMA", "IF", "EXISTS", "IS",
};

bool
isKeyword(const std::string &upper)
{
    for (const char *kw : kKeywords) {
        if (upper == kw)
            return true;
    }
    return false;
}

class Lexer {
  public:
    explicit Lexer(const std::string &sql) : s_(sql) {}

    Token next()
    {
        skipSpace();
        Token t;
        if (pos_ >= s_.size())
            return t;

        const char c = s_[pos_];
        if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
            std::string word;
            while (pos_ < s_.size() &&
                   (std::isalnum(static_cast<unsigned char>(s_[pos_])) ||
                    s_[pos_] == '_')) {
                word.push_back(s_[pos_++]);
            }
            std::string upper = word;
            for (char &ch : upper)
                ch = static_cast<char>(
                    std::toupper(static_cast<unsigned char>(ch)));
            if (isKeyword(upper)) {
                t.kind = Tok::kKeyword;
                t.text = upper;
            } else {
                t.kind = Tok::kIdent;
                t.text = word;
            }
            return t;
        }
        if (std::isdigit(static_cast<unsigned char>(c)) ||
            (c == '.' && pos_ + 1 < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_ + 1])))) {
            std::size_t start = pos_;
            bool real = false;
            while (pos_ < s_.size() &&
                   (std::isdigit(
                        static_cast<unsigned char>(s_[pos_])) ||
                    s_[pos_] == '.' || s_[pos_] == 'e' ||
                    s_[pos_] == 'E' ||
                    ((s_[pos_] == '+' || s_[pos_] == '-') && pos_ > start &&
                     (s_[pos_ - 1] == 'e' || s_[pos_ - 1] == 'E')))) {
                if (s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E')
                    real = true;
                ++pos_;
            }
            const std::string num = s_.substr(start, pos_ - start);
            if (real) {
                t.kind = Tok::kReal;
                t.realValue = std::strtod(num.c_str(), nullptr);
            } else {
                t.kind = Tok::kInt;
                t.intValue = std::strtoll(num.c_str(), nullptr, 10);
            }
            return t;
        }
        if (c == '\'') {
            ++pos_;
            std::string str;
            while (pos_ < s_.size()) {
                if (s_[pos_] == '\'') {
                    if (pos_ + 1 < s_.size() && s_[pos_ + 1] == '\'') {
                        str.push_back('\'');
                        pos_ += 2;
                        continue;
                    }
                    ++pos_;
                    t.kind = Tok::kString;
                    t.text = std::move(str);
                    return t;
                }
                str.push_back(s_[pos_++]);
            }
            throw SqlError("unterminated string literal");
        }

        // Multi-char operators.
        for (const char *op : {"<>", "<=", ">=", "!=", "=="}) {
            if (s_.compare(pos_, 2, op) == 0) {
                t.kind = Tok::kSymbol;
                t.text = std::string(op, 2);
                pos_ += 2;
                return t;
            }
        }
        t.kind = Tok::kSymbol;
        t.text = std::string(1, c);
        ++pos_;
        return t;
    }

  private:
    void skipSpace()
    {
        while (pos_ < s_.size()) {
            const char c = s_[pos_];
            if (std::isspace(static_cast<unsigned char>(c))) {
                ++pos_;
            } else if (c == '-' && pos_ + 1 < s_.size() &&
                       s_[pos_ + 1] == '-') {
                while (pos_ < s_.size() && s_[pos_] != '\n')
                    ++pos_;
            } else {
                break;
            }
        }
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

// --- parser -----------------------------------------------------------

class Parser {
  public:
    explicit Parser(const std::string &sql) : lexer_(sql)
    {
        advance();
    }

    std::vector<Stmt> parseAll()
    {
        std::vector<Stmt> stmts;
        for (;;) {
            while (isSymbol(";"))
                advance();
            if (cur_.kind == Tok::kEnd)
                break;
            stmts.push_back(parseStatement());
            if (cur_.kind != Tok::kEnd && !isSymbol(";"))
                fail("expected ';' after statement");
        }
        return stmts;
    }

  private:
    [[noreturn]] void fail(const std::string &msg)
    {
        throw SqlError(msg + " (near '" + cur_.text + "')");
    }

    void advance() { cur_ = lexer_.next(); }

    bool isKw(const char *kw) const
    {
        return cur_.kind == Tok::kKeyword && cur_.text == kw;
    }
    bool isSymbol(const char *sym) const
    {
        return cur_.kind == Tok::kSymbol && cur_.text == sym;
    }
    bool acceptKw(const char *kw)
    {
        if (!isKw(kw))
            return false;
        advance();
        return true;
    }
    bool acceptSymbol(const char *sym)
    {
        if (!isSymbol(sym))
            return false;
        advance();
        return true;
    }
    void expectKw(const char *kw)
    {
        if (!acceptKw(kw))
            fail(std::string("expected ") + kw);
    }
    void expectSymbol(const char *sym)
    {
        if (!acceptSymbol(sym))
            fail(std::string("expected '") + sym + "'");
    }

    std::string expectIdent()
    {
        if (cur_.kind != Tok::kIdent)
            fail("expected identifier");
        std::string name = cur_.text;
        advance();
        return name;
    }

    Stmt parseStatement()
    {
        if (isKw("CREATE"))
            return parseCreate();
        if (isKw("DROP"))
            return parseDrop();
        if (isKw("INSERT"))
            return parseInsert();
        if (isKw("SELECT"))
            return parseSelect();
        if (isKw("UPDATE"))
            return parseUpdate();
        if (isKw("DELETE"))
            return parseDelete();
        if (isKw("BEGIN")) {
            advance();
            acceptKw("TRANSACTION");
            return TxnStmt{TxnStmt::kBegin};
        }
        if (isKw("COMMIT")) {
            advance();
            return TxnStmt{TxnStmt::kCommit};
        }
        if (isKw("ROLLBACK")) {
            advance();
            return TxnStmt{TxnStmt::kRollback};
        }
        if (isKw("PRAGMA")) {
            advance();
            PragmaStmt p;
            p.name = expectIdent();
            return p;
        }
        fail("unknown statement");
    }

    ValueType parseType()
    {
        if (acceptKw("INTEGER") || acceptKw("INT"))
            return ValueType::kInt;
        if (acceptKw("REAL") || acceptKw("DOUBLE") || acceptKw("FLOAT"))
            return ValueType::kReal;
        if (acceptKw("TEXT") || acceptKw("CHAR") ||
            acceptKw("VARCHAR")) {
            // Optional length, e.g. VARCHAR(100).
            if (acceptSymbol("(")) {
                if (cur_.kind == Tok::kInt)
                    advance();
                expectSymbol(")");
            }
            return ValueType::kText;
        }
        fail("expected column type");
    }

    Stmt parseCreate()
    {
        expectKw("CREATE");
        if (acceptKw("TABLE")) {
            CreateTableStmt t;
            if (acceptKw("IF")) {
                expectKw("NOT");
                expectKw("EXISTS");
                t.ifNotExists = true;
            }
            t.name = expectIdent();
            expectSymbol("(");
            do {
                ColumnDef col;
                col.name = expectIdent();
                col.type = parseType();
                if (acceptKw("PRIMARY")) {
                    expectKw("KEY");
                    col.primaryKey = true;
                }
                acceptKw("UNIQUE"); // tolerated, enforced via index
                t.columns.push_back(std::move(col));
            } while (acceptSymbol(","));
            expectSymbol(")");
            return t;
        }
        CreateIndexStmt idx;
        if (acceptKw("UNIQUE"))
            idx.unique = true;
        expectKw("INDEX");
        idx.name = expectIdent();
        expectKw("ON");
        idx.table = expectIdent();
        expectSymbol("(");
        idx.column = expectIdent();
        expectSymbol(")");
        return idx;
    }

    Stmt parseDrop()
    {
        expectKw("DROP");
        expectKw("TABLE");
        DropTableStmt d;
        d.name = expectIdent();
        return d;
    }

    Stmt parseInsert()
    {
        expectKw("INSERT");
        expectKw("INTO");
        InsertStmt ins;
        ins.table = expectIdent();
        if (acceptSymbol("(")) {
            do {
                ins.columns.push_back(expectIdent());
            } while (acceptSymbol(","));
            expectSymbol(")");
        }
        expectKw("VALUES");
        do {
            expectSymbol("(");
            std::vector<ExprPtr> row;
            do {
                row.push_back(parseExpr());
            } while (acceptSymbol(","));
            expectSymbol(")");
            ins.rows.push_back(std::move(row));
        } while (acceptSymbol(","));
        return ins;
    }

    Stmt parseSelect()
    {
        expectKw("SELECT");
        SelectStmt sel;
        do {
            SelectItem item;
            item.expr = parseExpr();
            if (acceptKw("AS"))
                item.alias = expectIdent();
            sel.items.push_back(std::move(item));
        } while (acceptSymbol(","));

        // FROM is optional: "SELECT 1+1" evaluates over a single
        // empty row, as in SQLite.
        if (acceptKw("FROM")) {
            sel.table = expectIdent();
            if (cur_.kind == Tok::kIdent)
                sel.tableAlias = expectIdent();
        }
        while (!sel.table.empty() && (isKw("JOIN") || isKw("INNER"))) {
            acceptKw("INNER");
            expectKw("JOIN");
            JoinClause join;
            join.table = expectIdent();
            if (cur_.kind == Tok::kIdent)
                join.alias = expectIdent();
            expectKw("ON");
            join.on = parseExpr();
            sel.joins.push_back(std::move(join));
        }
        if (acceptKw("WHERE"))
            sel.where = parseExpr();
        if (acceptKw("GROUP")) {
            expectKw("BY");
            do {
                sel.groupBy.push_back(parseExpr());
            } while (acceptSymbol(","));
        }
        if (acceptKw("ORDER")) {
            expectKw("BY");
            do {
                SelectStmt::OrderKey key;
                key.expr = parseExpr();
                if (acceptKw("DESC"))
                    key.desc = true;
                else
                    acceptKw("ASC");
                sel.orderBy.push_back(std::move(key));
            } while (acceptSymbol(","));
        }
        if (acceptKw("LIMIT")) {
            if (cur_.kind != Tok::kInt)
                fail("expected integer LIMIT");
            sel.limit = cur_.intValue;
            advance();
        }
        return sel;
    }

    Stmt parseUpdate()
    {
        expectKw("UPDATE");
        UpdateStmt upd;
        upd.table = expectIdent();
        expectKw("SET");
        do {
            std::string col = expectIdent();
            expectSymbol("=");
            upd.sets.emplace_back(std::move(col), parseExpr());
        } while (acceptSymbol(","));
        if (acceptKw("WHERE"))
            upd.where = parseExpr();
        return upd;
    }

    Stmt parseDelete()
    {
        expectKw("DELETE");
        expectKw("FROM");
        DeleteStmt del;
        del.table = expectIdent();
        if (acceptKw("WHERE"))
            del.where = parseExpr();
        return del;
    }

    // Expression precedence climbing.
    ExprPtr parseExpr() { return parseOr(); }

    ExprPtr parseOr()
    {
        ExprPtr lhs = parseAnd();
        while (acceptKw("OR")) {
            std::vector<ExprPtr> args;
            args.push_back(std::move(lhs));
            args.push_back(parseAnd());
            lhs = Expr::node(ExprOp::kOr, std::move(args));
        }
        return lhs;
    }

    ExprPtr parseAnd()
    {
        ExprPtr lhs = parseNot();
        while (acceptKw("AND")) {
            std::vector<ExprPtr> args;
            args.push_back(std::move(lhs));
            args.push_back(parseNot());
            lhs = Expr::node(ExprOp::kAnd, std::move(args));
        }
        return lhs;
    }

    ExprPtr parseNot()
    {
        if (acceptKw("NOT")) {
            std::vector<ExprPtr> args;
            args.push_back(parseNot());
            return Expr::node(ExprOp::kNot, std::move(args));
        }
        return parseComparison();
    }

    ExprPtr parseComparison()
    {
        ExprPtr lhs = parseAdditive();
        for (;;) {
            ExprOp op;
            if (isSymbol("=") || isSymbol("==")) {
                op = ExprOp::kEq;
            } else if (isSymbol("!=") || isSymbol("<>")) {
                op = ExprOp::kNe;
            } else if (isSymbol("<")) {
                op = ExprOp::kLt;
            } else if (isSymbol("<=")) {
                op = ExprOp::kLe;
            } else if (isSymbol(">")) {
                op = ExprOp::kGt;
            } else if (isSymbol(">=")) {
                op = ExprOp::kGe;
            } else if (isKw("LIKE")) {
                advance();
                std::vector<ExprPtr> args;
                args.push_back(std::move(lhs));
                args.push_back(parseAdditive());
                lhs = Expr::node(ExprOp::kLike, std::move(args));
                continue;
            } else if (isKw("BETWEEN")) {
                advance();
                std::vector<ExprPtr> args;
                args.push_back(std::move(lhs));
                args.push_back(parseAdditive());
                expectKw("AND");
                args.push_back(parseAdditive());
                lhs = Expr::node(ExprOp::kBetween, std::move(args));
                continue;
            } else if (isKw("IN")) {
                advance();
                expectSymbol("(");
                std::vector<ExprPtr> args;
                args.push_back(std::move(lhs));
                do {
                    args.push_back(parseExpr());
                } while (acceptSymbol(","));
                expectSymbol(")");
                lhs = Expr::node(ExprOp::kIn, std::move(args));
                continue;
            } else if (isKw("IS")) {
                // IS [NOT] NULL sugar over equality with NULL.
                advance();
                const bool negate = acceptKw("NOT");
                expectKw("NULL");
                std::vector<ExprPtr> args;
                args.push_back(std::move(lhs));
                args.push_back(Expr::literal(Value::null()));
                lhs = Expr::node(ExprOp::kEq, std::move(args));
                if (negate) {
                    std::vector<ExprPtr> not_args;
                    not_args.push_back(std::move(lhs));
                    lhs = Expr::node(ExprOp::kNot, std::move(not_args));
                }
                continue;
            } else {
                return lhs;
            }
            advance();
            std::vector<ExprPtr> args;
            args.push_back(std::move(lhs));
            args.push_back(parseAdditive());
            lhs = Expr::node(op, std::move(args));
        }
    }

    ExprPtr parseAdditive()
    {
        ExprPtr lhs = parseMultiplicative();
        for (;;) {
            ExprOp op;
            if (isSymbol("+"))
                op = ExprOp::kAdd;
            else if (isSymbol("-"))
                op = ExprOp::kSub;
            else
                return lhs;
            advance();
            std::vector<ExprPtr> args;
            args.push_back(std::move(lhs));
            args.push_back(parseMultiplicative());
            lhs = Expr::node(op, std::move(args));
        }
    }

    ExprPtr parseMultiplicative()
    {
        ExprPtr lhs = parseUnary();
        for (;;) {
            ExprOp op;
            if (isSymbol("*"))
                op = ExprOp::kMul;
            else if (isSymbol("/"))
                op = ExprOp::kDiv;
            else if (isSymbol("%"))
                op = ExprOp::kMod;
            else
                return lhs;
            advance();
            std::vector<ExprPtr> args;
            args.push_back(std::move(lhs));
            args.push_back(parseUnary());
            lhs = Expr::node(op, std::move(args));
        }
    }

    ExprPtr parseUnary()
    {
        if (acceptSymbol("-")) {
            std::vector<ExprPtr> args;
            args.push_back(parseUnary());
            return Expr::node(ExprOp::kNeg, std::move(args));
        }
        acceptSymbol("+");
        return parsePrimary();
    }

    ExprPtr parsePrimary()
    {
        if (cur_.kind == Tok::kInt) {
            auto e = Expr::literal(Value(cur_.intValue));
            advance();
            return e;
        }
        if (cur_.kind == Tok::kReal) {
            auto e = Expr::literal(Value(cur_.realValue));
            advance();
            return e;
        }
        if (cur_.kind == Tok::kString) {
            auto e = Expr::literal(Value(cur_.text));
            advance();
            return e;
        }
        if (isKw("NULL")) {
            advance();
            return Expr::literal(Value::null());
        }
        if (acceptSymbol("(")) {
            ExprPtr e = parseExpr();
            expectSymbol(")");
            return e;
        }
        if (isSymbol("*")) {
            advance();
            return Expr::node(ExprOp::kStar, {});
        }
        if (cur_.kind == Tok::kIdent) {
            std::string name = cur_.text;
            advance();
            if (acceptSymbol("(")) {
                // Aggregate call.
                auto e = std::make_unique<Expr>();
                e->op = ExprOp::kCall;
                e->func = name;
                for (char &ch : e->func)
                    ch = static_cast<char>(
                        std::tolower(static_cast<unsigned char>(ch)));
                if (!acceptSymbol(")")) {
                    do {
                        if (isSymbol("*")) {
                            advance();
                            e->args.push_back(
                                Expr::node(ExprOp::kStar, {}));
                        } else {
                            e->args.push_back(parseExpr());
                        }
                    } while (acceptSymbol(","));
                    expectSymbol(")");
                }
                return e;
            }
            if (acceptSymbol(".")) {
                std::string column = expectIdent();
                return Expr::columnRef(std::move(name),
                                       std::move(column));
            }
            return Expr::columnRef("", std::move(name));
        }
        fail("expected expression");
    }

    Lexer lexer_;
    Token cur_;
};

} // namespace

std::vector<Stmt>
parseSql(const std::string &sql)
{
    Parser parser(sql);
    return parser.parseAll();
}

} // namespace cubicleos::minisql
