//! Recursive-descent parser for the SQL subset.

#![expect(
    clippy::indexing_slicing,
    reason = "recursive-descent cursor: token positions are bounded by the EOF sentinel the lexer always appends"
)]

use crate::ast::*;
use crate::lexer::{Lexer, Token, TokenKind};
use std::fmt;
use sysr_rss::{ColType, CompareOp, Value};

/// A parse error with a byte offset into the source.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    pub message: String,
    pub pos: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse a single statement (a trailing semicolon is allowed).
pub fn parse_statement(src: &str) -> Result<Statement, ParseError> {
    parse_one(src).map(|(_, stmt)| stmt)
}

/// [`parse_statement`], also returning the statement's body text (see
/// [`parse_statements`]).
pub fn parse_one(src: &str) -> Result<(&str, Statement), ParseError> {
    let mut stmts = parse_statements(src)?;
    match stmts.len() {
        1 => Ok(stmts.remove(0)),
        0 => Err(ParseError { message: "empty input".into(), pos: 0 }),
        _ => Err(ParseError { message: "expected a single statement".into(), pos: 0 }),
    }
}

/// Parse a semicolon-separated script. Each statement comes with its
/// *body text*: the source from its first token after any `EXPLAIN
/// [ANALYZE]` prefix up to the `;` or end of input that closes it, trailing
/// whitespace trimmed. A body text parses on its own to that statement
/// (under an EXPLAIN, to the statement explained), so the text alone names
/// it — the facade's plan cache is keyed by it.
pub fn parse_statements(src: &str) -> Result<Vec<(&str, Statement)>, ParseError> {
    let tokens = Lexer::tokenize(src).map_err(|(message, pos)| ParseError { message, pos })?;
    let mut parser = Parser { tokens, pos: 0, body: 0 };
    let mut stmts = Vec::new();
    loop {
        while parser.peek_is(&TokenKind::Semicolon) {
            parser.advance();
        }
        if parser.peek_is(&TokenKind::Eof) {
            return Ok(stmts);
        }
        let stmt = parser.statement()?;
        let text = src
            .get(parser.body..parser.peek().pos)
            .ok_or_else(|| parser.error("statement body is not a character range"))?;
        stmts.push((text.trim_end(), stmt));
        if !parser.peek_is(&TokenKind::Semicolon) && !parser.peek_is(&TokenKind::Eof) {
            return Err(parser.error("expected ';' or end of input"));
        }
    }
}

/// Identifiers that terminate clauses and therefore cannot be implicit
/// table aliases.
const RESERVED: &[&str] = &[
    "SELECT", "FROM", "WHERE", "GROUP", "ORDER", "BY", "AND", "OR", "NOT", "IN", "BETWEEN", "AS",
    "ASC", "DESC", "DISTINCT", "VALUES", "INTO", "SET", "ON", "HAVING", "UNION", "LIMIT",
];

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Byte offset where the statement being parsed starts, past any
    /// `EXPLAIN [ANALYZE]` prefix.
    body: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_is(&self, kind: &TokenKind) -> bool {
        &self.peek().kind == kind
    }

    fn peek_kw(&self, kw: &str) -> bool {
        matches!(&self.peek().kind, TokenKind::Ident(s) if s == kw)
    }

    /// Look ahead `n` tokens (0 = current).
    fn peek_ahead(&self, n: usize) -> &TokenKind {
        &self.tokens[(self.pos + n).min(self.tokens.len() - 1)].kind
    }

    fn advance(&mut self) -> Token {
        let tok = self.peek().clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        tok
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError { message: message.into(), pos: self.peek().pos }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<Token, ParseError> {
        if self.peek_is(kind) {
            Ok(self.advance())
        } else {
            Err(self.error(format!("expected {kind}, found {}", self.peek().kind)))
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.peek_kw(kw) {
            self.advance();
            Ok(())
        } else {
            Err(self.error(format!("expected {kw}, found {}", self.peek().kind)))
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek_kw(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn ident(&mut self, what: &str) -> Result<String, ParseError> {
        match &self.peek().kind {
            TokenKind::Ident(s) => {
                let s = s.clone();
                self.advance();
                Ok(s)
            }
            other => Err(self.error(format!("expected {what}, found {other}"))),
        }
    }

    // ---- statements ------------------------------------------------------

    fn statement(&mut self) -> Result<Statement, ParseError> {
        if self.eat_kw("EXPLAIN") {
            if self.eat_kw("ANALYZE") {
                return Ok(Statement::ExplainAnalyze(Box::new(self.statement()?)));
            }
            return Ok(Statement::Explain(Box::new(self.statement()?)));
        }
        self.body = self.peek().pos;
        if self.peek_kw("SELECT") {
            return Ok(Statement::Select(self.select()?));
        }
        if self.eat_kw("CREATE") {
            return self.create();
        }
        if self.eat_kw("INSERT") {
            return self.insert();
        }
        if self.eat_kw("DELETE") {
            return self.delete();
        }
        if self.eat_kw("UPDATE") {
            if self.eat_kw("STATISTICS") {
                return Ok(Statement::UpdateStatistics);
            }
            return self.update();
        }
        Err(self.error(format!("expected a statement, found {}", self.peek().kind)))
    }

    fn create(&mut self) -> Result<Statement, ParseError> {
        let unique = self.eat_kw("UNIQUE");
        let clustered = self.eat_kw("CLUSTERED");
        if self.eat_kw("INDEX") {
            let name = self.ident("index name")?;
            self.expect_kw("ON")?;
            let table = self.ident("table name")?;
            self.expect(&TokenKind::LParen)?;
            let mut columns = vec![self.ident("column name")?];
            while self.peek_is(&TokenKind::Comma) {
                self.advance();
                columns.push(self.ident("column name")?);
            }
            self.expect(&TokenKind::RParen)?;
            return Ok(Statement::CreateIndex(CreateIndexStmt {
                name,
                table,
                columns,
                unique,
                clustered,
            }));
        }
        if unique || clustered {
            return Err(self.error("UNIQUE/CLUSTERED only apply to CREATE INDEX"));
        }
        self.expect_kw("TABLE")?;
        let name = self.ident("table name")?;
        self.expect(&TokenKind::LParen)?;
        let mut columns = Vec::new();
        loop {
            let col = self.ident("column name")?;
            let ty_name = self.ident("column type")?;
            let ty = match ty_name.as_str() {
                "INT" | "INTEGER" => ColType::Int,
                "FLOAT" | "REAL" | "DOUBLE" | "DECIMAL" => ColType::Float,
                "VARCHAR" | "CHAR" | "TEXT" | "STRING" => {
                    // Accept an optional length: CHAR(20).
                    if self.peek_is(&TokenKind::LParen) {
                        self.advance();
                        self.expect_int("char length")?;
                        self.expect(&TokenKind::RParen)?;
                    }
                    ColType::Str
                }
                other => return Err(self.error(format!("unknown column type {other}"))),
            };
            columns.push((col, ty));
            if self.peek_is(&TokenKind::Comma) {
                self.advance();
            } else {
                break;
            }
        }
        self.expect(&TokenKind::RParen)?;
        Ok(Statement::CreateTable(CreateTableStmt { name, columns }))
    }

    fn expect_int(&mut self, what: &str) -> Result<i64, ParseError> {
        match self.peek().kind {
            TokenKind::Int(u) => {
                let i = self.int_in_range(u)?;
                self.advance();
                Ok(i)
            }
            _ => Err(self.error(format!("expected integer {what}"))),
        }
    }

    /// An unsigned integer literal as an `i64`, or a typed error past
    /// `i64::MAX`.
    fn int_in_range(&self, u: u64) -> Result<i64, ParseError> {
        i64::try_from(u).map_err(|_| self.error(format!("integer literal {u} out of range")))
    }

    fn insert(&mut self) -> Result<Statement, ParseError> {
        self.expect_kw("INTO")?;
        let table = self.ident("table name")?;
        let columns = if self.peek_is(&TokenKind::LParen) {
            self.advance();
            let mut cols = vec![self.ident("column name")?];
            while self.peek_is(&TokenKind::Comma) {
                self.advance();
                cols.push(self.ident("column name")?);
            }
            self.expect(&TokenKind::RParen)?;
            Some(cols)
        } else {
            None
        };
        self.expect_kw("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect(&TokenKind::LParen)?;
            let mut row = vec![self.expr()?];
            while self.peek_is(&TokenKind::Comma) {
                self.advance();
                row.push(self.expr()?);
            }
            self.expect(&TokenKind::RParen)?;
            rows.push(row);
            if self.peek_is(&TokenKind::Comma) {
                self.advance();
            } else {
                break;
            }
        }
        Ok(Statement::Insert(InsertStmt { table, columns, rows }))
    }

    fn update(&mut self) -> Result<Statement, ParseError> {
        let table = self.ident("table name")?;
        self.expect_kw("SET")?;
        let mut assignments = Vec::new();
        loop {
            let col = self.ident("column name")?;
            self.expect(&TokenKind::Eq)?;
            let value = self.additive()?;
            assignments.push((col, value));
            if self.peek_is(&TokenKind::Comma) {
                self.advance();
            } else {
                break;
            }
        }
        let where_clause = if self.eat_kw("WHERE") { Some(self.expr()?) } else { None };
        Ok(Statement::Update(UpdateStmt { table, assignments, where_clause }))
    }

    fn delete(&mut self) -> Result<Statement, ParseError> {
        self.expect_kw("FROM")?;
        let table = self.ident("table name")?;
        let where_clause = if self.eat_kw("WHERE") { Some(self.expr()?) } else { None };
        Ok(Statement::Delete(DeleteStmt { table, where_clause }))
    }

    // ---- SELECT ----------------------------------------------------------

    fn select(&mut self) -> Result<SelectStmt, ParseError> {
        self.expect_kw("SELECT")?;
        let distinct = self.eat_kw("DISTINCT");
        let select = if self.peek_is(&TokenKind::Star) {
            self.advance();
            SelectList::Star
        } else {
            let mut items = vec![self.select_item()?];
            while self.peek_is(&TokenKind::Comma) {
                self.advance();
                items.push(self.select_item()?);
            }
            SelectList::Items(items)
        };
        self.expect_kw("FROM")?;
        let mut from = vec![self.table_ref()?];
        while self.peek_is(&TokenKind::Comma) {
            self.advance();
            from.push(self.table_ref()?);
        }
        let where_clause = if self.eat_kw("WHERE") { Some(self.expr()?) } else { None };
        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            group_by.push(self.column_ref()?);
            while self.peek_is(&TokenKind::Comma) {
                self.advance();
                group_by.push(self.column_ref()?);
            }
        }
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let col = self.column_ref()?;
                let desc = if self.eat_kw("DESC") {
                    true
                } else {
                    self.eat_kw("ASC");
                    false
                };
                order_by.push(OrderItem { col, desc });
                if self.peek_is(&TokenKind::Comma) {
                    self.advance();
                } else {
                    break;
                }
            }
        }
        Ok(SelectStmt { distinct, select, from, where_clause, group_by, order_by })
    }

    fn select_item(&mut self) -> Result<SelectItem, ParseError> {
        let expr = self.expr()?;
        let alias = if self.eat_kw("AS") { Some(self.ident("alias")?) } else { None };
        Ok(SelectItem { expr, alias })
    }

    fn table_ref(&mut self) -> Result<TableRef, ParseError> {
        let table = self.ident("table name")?;
        let alias = match &self.peek().kind {
            TokenKind::Ident(s) if !RESERVED.contains(&s.as_str()) => {
                let a = s.clone();
                self.advance();
                Some(a)
            }
            _ => None,
        };
        Ok(TableRef { table, alias })
    }

    fn column_ref(&mut self) -> Result<ColumnRef, ParseError> {
        let first = self.ident("column name")?;
        if self.peek_is(&TokenKind::Dot) {
            self.advance();
            let column = self.ident("column name")?;
            Ok(ColumnRef { table: Some(first), column })
        } else {
            Ok(ColumnRef { table: None, column: first })
        }
    }

    // ---- expressions -----------------------------------------------------

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.and_expr()?;
        while self.eat_kw("OR") {
            let right = self.and_expr()?;
            left = Expr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.not_expr()?;
        while self.eat_kw("AND") {
            let right = self.not_expr()?;
            left = Expr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr, ParseError> {
        if self.eat_kw("NOT") {
            let inner = self.not_expr()?;
            return Ok(Expr::Not(Box::new(inner)));
        }
        self.predicate()
    }

    fn compare_op(&mut self) -> Option<CompareOp> {
        let op = match self.peek().kind {
            TokenKind::Eq => CompareOp::Eq,
            TokenKind::Ne => CompareOp::Ne,
            TokenKind::Lt => CompareOp::Lt,
            TokenKind::Le => CompareOp::Le,
            TokenKind::Gt => CompareOp::Gt,
            TokenKind::Ge => CompareOp::Ge,
            _ => return None,
        };
        self.advance();
        Some(op)
    }

    /// Whether the upcoming tokens are `( SELECT ...`.
    fn at_subquery(&self) -> bool {
        self.peek_is(&TokenKind::LParen)
            && matches!(self.peek_ahead(1), TokenKind::Ident(s) if s == "SELECT")
    }

    fn predicate(&mut self) -> Result<Expr, ParseError> {
        let left = self.additive()?;
        if let Some(op) = self.compare_op() {
            if self.at_subquery() {
                self.advance(); // '('
                let query = self.select()?;
                self.expect(&TokenKind::RParen)?;
                return Ok(Expr::CompareSubquery {
                    op,
                    left: Box::new(left),
                    query: Box::new(query),
                });
            }
            let right = self.additive()?;
            return Ok(Expr::Compare { op, left: Box::new(left), right: Box::new(right) });
        }
        let negated = self.eat_kw("NOT");
        if self.eat_kw("BETWEEN") {
            let low = self.additive()?;
            self.expect_kw("AND")?;
            let high = self.additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.eat_kw("IN") {
            if self.at_subquery() {
                self.advance(); // '('
                let query = self.select()?;
                self.expect(&TokenKind::RParen)?;
                return Ok(Expr::InSubquery {
                    expr: Box::new(left),
                    query: Box::new(query),
                    negated,
                });
            }
            self.expect(&TokenKind::LParen)?;
            let mut list = vec![self.additive()?];
            while self.peek_is(&TokenKind::Comma) {
                self.advance();
                list.push(self.additive()?);
            }
            self.expect(&TokenKind::RParen)?;
            return Ok(Expr::InList { expr: Box::new(left), list, negated });
        }
        if negated {
            return Err(self.error("expected BETWEEN or IN after NOT"));
        }
        Ok(left)
    }

    fn additive(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek().kind {
                TokenKind::Plus => ArithOp::Add,
                TokenKind::Minus => ArithOp::Sub,
                _ => return Ok(left),
            };
            self.advance();
            let right = self.multiplicative()?;
            left = Expr::Arith { op, left: Box::new(left), right: Box::new(right) };
        }
    }

    fn multiplicative(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.unary()?;
        loop {
            let op = match self.peek().kind {
                TokenKind::Star => ArithOp::Mul,
                TokenKind::Slash => ArithOp::Div,
                _ => return Ok(left),
            };
            self.advance();
            let right = self.unary()?;
            left = Expr::Arith { op, left: Box::new(left), right: Box::new(right) };
        }
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        if self.peek_is(&TokenKind::Minus) {
            self.advance();
            // A minus sign directly before an integer literal negates its
            // magnitude, which reaches one past `i64::MAX`:
            // `-9223372036854775808` is `i64::MIN`.
            if let TokenKind::Int(u) = self.peek().kind {
                let i = 0i64
                    .checked_sub_unsigned(u)
                    .ok_or_else(|| self.error(format!("integer literal -{u} out of range")))?;
                self.advance();
                return Ok(Expr::Literal(Value::Int(i)));
            }
            let inner = self.unary()?;
            // Fold negation of literals immediately: `-(5)` is a literal.
            // Negation wraps, as the executor's does: `-(i64::MIN)` is
            // `i64::MIN`.
            return Ok(match inner {
                Expr::Literal(Value::Int(i)) => Expr::Literal(Value::Int(i.wrapping_neg())),
                Expr::Literal(Value::Float(x)) => Expr::Literal(Value::Float(-x)),
                other => Expr::Neg(Box::new(other)),
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        match self.peek().kind.clone() {
            TokenKind::Int(u) => {
                let i = self.int_in_range(u)?;
                self.advance();
                Ok(Expr::Literal(Value::Int(i)))
            }
            TokenKind::Float(x) => {
                self.advance();
                Ok(Expr::Literal(Value::Float(x)))
            }
            TokenKind::Str(s) => {
                self.advance();
                Ok(Expr::Literal(Value::Str(s)))
            }
            TokenKind::LParen => {
                if self.at_subquery() {
                    return Err(
                        self.error("subqueries are only allowed as comparison or IN operands")
                    );
                }
                self.advance();
                let e = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                // Aggregate call?
                if let Some(func) = match name.as_str() {
                    "COUNT" => Some(AggFunc::Count),
                    "SUM" => Some(AggFunc::Sum),
                    "AVG" => Some(AggFunc::Avg),
                    "MIN" => Some(AggFunc::Min),
                    "MAX" => Some(AggFunc::Max),
                    _ => None,
                } {
                    if self.peek_ahead(1) == &TokenKind::LParen {
                        self.advance(); // func name
                        self.advance(); // '('
                        let arg = if self.peek_is(&TokenKind::Star) {
                            if func != AggFunc::Count {
                                return Err(self.error("only COUNT may take *"));
                            }
                            self.advance();
                            None
                        } else {
                            Some(Box::new(self.expr()?))
                        };
                        self.expect(&TokenKind::RParen)?;
                        return Ok(Expr::Agg { func, arg });
                    }
                }
                if name == "NULL" {
                    self.advance();
                    return Ok(Expr::Literal(Value::Null));
                }
                Ok(Expr::Column(self.column_ref()?))
            }
            other => Err(self.error(format!("expected an expression, found {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(src: &str) -> SelectStmt {
        match parse_statement(src).unwrap() {
            Statement::Select(s) => s,
            other => panic!("expected SELECT, got {other:?}"),
        }
    }

    #[test]
    fn paper_fig1_query_parses() {
        let s = sel("SELECT NAME, TITLE, SAL, DNAME
             FROM EMP, DEPT, JOB
             WHERE TITLE='CLERK'
               AND LOC='DENVER'
               AND EMP.DNO=DEPT.DNO
               AND EMP.JOB=JOB.JOB");
        assert_eq!(s.from.len(), 3);
        let SelectList::Items(items) = &s.select else { panic!() };
        assert_eq!(items.len(), 4);
        // WHERE tree: ((A AND B) AND C) AND D
        let mut count = 0;
        fn count_ands(e: &Expr, n: &mut usize) {
            if let Expr::And(a, b) = e {
                *n += 1;
                count_ands(a, n);
                count_ands(b, n);
            }
        }
        count_ands(s.where_clause.as_ref().unwrap(), &mut count);
        assert_eq!(count, 3);
    }

    #[test]
    fn star_and_distinct() {
        let s = sel("SELECT * FROM T");
        assert_eq!(s.select, SelectList::Star);
        assert!(!s.distinct);
        let s = sel("SELECT DISTINCT A FROM T");
        assert!(s.distinct);
    }

    #[test]
    fn aliases() {
        let s = sel("SELECT X.SAL FROM EMPLOYEE X WHERE X.SAL > 10");
        assert_eq!(s.from[0].alias.as_deref(), Some("X"));
        assert_eq!(s.from[0].binding_name(), "X");
        let s = sel("SELECT A AS B FROM T");
        let SelectList::Items(items) = &s.select else { panic!() };
        assert_eq!(items[0].alias.as_deref(), Some("B"));
    }

    #[test]
    fn group_and_order() {
        let s = sel("SELECT DNO, AVG(SAL) FROM EMP GROUP BY DNO ORDER BY DNO DESC, SAL");
        assert_eq!(s.group_by, vec![ColumnRef::unqualified("DNO")]);
        assert_eq!(s.order_by.len(), 2);
        assert!(s.order_by[0].desc);
        assert!(!s.order_by[1].desc);
    }

    #[test]
    fn between_and_in_list() {
        let s = sel("SELECT A FROM T WHERE A BETWEEN 1 AND 10 AND B IN (1, 2, 3)");
        let Expr::And(l, r) = s.where_clause.unwrap() else { panic!() };
        assert!(matches!(*l, Expr::Between { negated: false, .. }));
        assert!(matches!(*r, Expr::InList { ref list, negated: false, .. } if list.len() == 3));
    }

    #[test]
    fn not_between_and_not_in() {
        let s = sel("SELECT A FROM T WHERE A NOT BETWEEN 1 AND 2 OR B NOT IN (5)");
        let Expr::Or(l, r) = s.where_clause.unwrap() else { panic!() };
        assert!(matches!(*l, Expr::Between { negated: true, .. }));
        assert!(matches!(*r, Expr::InList { negated: true, .. }));
    }

    #[test]
    fn scalar_subquery_from_paper() {
        let s = sel("SELECT NAME FROM EMPLOYEE
             WHERE SALARY = (SELECT AVG(SALARY) FROM EMPLOYEE)");
        let Expr::CompareSubquery { op, query, .. } = s.where_clause.unwrap() else { panic!() };
        assert_eq!(op, CompareOp::Eq);
        let SelectList::Items(items) = &query.select else { panic!() };
        assert!(matches!(items[0].expr, Expr::Agg { func: AggFunc::Avg, .. }));
    }

    #[test]
    fn in_subquery_from_paper() {
        let s = sel("SELECT NAME FROM EMPLOYEE
             WHERE DEPARTMENT_NUMBER IN
               (SELECT DEPARTMENT_NUMBER FROM DEPARTMENT WHERE LOCATION='DENVER')");
        assert!(matches!(s.where_clause.unwrap(), Expr::InSubquery { negated: false, .. }));
    }

    #[test]
    fn correlated_three_level_query_from_paper() {
        let s = sel("SELECT NAME FROM EMPLOYEE X WHERE SALARY >
               (SELECT SALARY FROM EMPLOYEE WHERE EMPLOYEE_NUMBER =
                 (SELECT MANAGER FROM EMPLOYEE WHERE EMPLOYEE_NUMBER = X.MANAGER))");
        let Expr::CompareSubquery { query: level2, .. } = s.where_clause.unwrap() else { panic!() };
        let Expr::CompareSubquery { query: level3, .. } = level2.where_clause.clone().unwrap()
        else {
            panic!()
        };
        let Expr::Compare { right, .. } = level3.where_clause.clone().unwrap() else { panic!() };
        assert_eq!(*right, Expr::Column(ColumnRef::qualified("X", "MANAGER")));
    }

    #[test]
    fn arithmetic_precedence() {
        let s = sel("SELECT A + B * 2 FROM T");
        let SelectList::Items(items) = &s.select else { panic!() };
        let Expr::Arith { op: ArithOp::Add, right, .. } = &items[0].expr else { panic!() };
        assert!(matches!(**right, Expr::Arith { op: ArithOp::Mul, .. }));
    }

    #[test]
    fn boolean_precedence_or_lowest() {
        let s = sel("SELECT A FROM T WHERE X = 1 OR Y = 2 AND Z = 3");
        assert!(matches!(s.where_clause.unwrap(), Expr::Or(_, _)));
        let s = sel("SELECT A FROM T WHERE NOT X = 1 AND Y = 2");
        assert!(matches!(s.where_clause.unwrap(), Expr::And(_, _)));
    }

    #[test]
    fn negative_literals_fold() {
        let s = sel("SELECT A FROM T WHERE A > -5");
        let Expr::Compare { right, .. } = s.where_clause.unwrap() else { panic!() };
        assert_eq!(*right, Expr::Literal(Value::Int(-5)));
    }

    #[test]
    fn ddl_create_table() {
        let Statement::CreateTable(ct) =
            parse_statement("CREATE TABLE EMP (NAME VARCHAR(20), DNO INTEGER, SAL FLOAT)").unwrap()
        else {
            panic!()
        };
        assert_eq!(ct.name, "EMP");
        assert_eq!(
            ct.columns,
            vec![
                ("NAME".to_string(), ColType::Str),
                ("DNO".to_string(), ColType::Int),
                ("SAL".to_string(), ColType::Float)
            ]
        );
    }

    #[test]
    fn ddl_create_index_variants() {
        let Statement::CreateIndex(ci) =
            parse_statement("CREATE UNIQUE CLUSTERED INDEX E_DNO ON EMP (DNO, JOB)").unwrap()
        else {
            panic!()
        };
        assert!(ci.unique && ci.clustered);
        assert_eq!(ci.columns, vec!["DNO", "JOB"]);
        let Statement::CreateIndex(ci) = parse_statement("CREATE INDEX J ON JOB (JOB)").unwrap()
        else {
            panic!()
        };
        assert!(!ci.unique && !ci.clustered);
    }

    #[test]
    fn insert_multi_row() {
        let Statement::Insert(ins) =
            parse_statement("INSERT INTO JOB (JOB, TITLE) VALUES (5, 'CLERK'), (6, 'TYPIST')")
                .unwrap()
        else {
            panic!()
        };
        assert_eq!(ins.rows.len(), 2);
        assert_eq!(ins.columns.as_ref().unwrap().len(), 2);
    }

    #[test]
    fn delete_and_update_statistics() {
        assert!(matches!(
            parse_statement("DELETE FROM T WHERE A = 1").unwrap(),
            Statement::Delete(_)
        ));
        assert!(matches!(
            parse_statement("UPDATE STATISTICS").unwrap(),
            Statement::UpdateStatistics
        ));
    }

    #[test]
    fn explain_analyze_wraps() {
        let Statement::ExplainAnalyze(inner) =
            parse_statement("EXPLAIN ANALYZE SELECT A FROM T").unwrap()
        else {
            panic!()
        };
        assert!(matches!(*inner, Statement::Select(_)));
        // ANALYZE stays a context keyword: usable as an identifier.
        assert!(parse_statement("SELECT ANALYZE FROM T").is_ok());
    }

    #[test]
    fn explain_wraps() {
        let Statement::Explain(inner) = parse_statement("EXPLAIN SELECT A FROM T").unwrap() else {
            panic!()
        };
        assert!(matches!(*inner, Statement::Select(_)));
    }

    #[test]
    fn multiple_statements() {
        let stmts = parse_statements("SELECT A FROM T; SELECT B FROM U;").unwrap();
        assert_eq!(stmts.len(), 2);
    }

    #[test]
    fn body_texts_name_their_statements() {
        let src = "  SELECT A FROM T ;\nEXPLAIN ANALYZE SELECT B FROM U -- why\n;;\
                   explain  select  C from V;UPDATE STATISTICS";
        let texts: Vec<&str> = parse_statements(src).unwrap().iter().map(|s| s.0).collect();
        assert_eq!(
            texts,
            ["SELECT A FROM T", "SELECT B FROM U -- why", "select  C from V", "UPDATE STATISTICS"]
        );
        for (text, stmt) in parse_statements(src).unwrap() {
            let inner = match stmt {
                Statement::Explain(inner) | Statement::ExplainAnalyze(inner) => *inner,
                other => other,
            };
            assert_eq!(parse_statement(text).unwrap(), inner, "{text:?}");
        }
        assert_eq!(parse_one("SELECT A FROM T;").unwrap().0, "SELECT A FROM T");
    }

    #[test]
    fn integer_literals_span_the_i64_range() {
        let lit = |src: &str| {
            let s = sel(&format!("SELECT A FROM T WHERE A = {src}"));
            let Some(Expr::Compare { right, .. }) = s.where_clause else { panic!("{src}") };
            *right
        };
        assert_eq!(lit("-9223372036854775808"), Expr::Literal(Value::Int(i64::MIN)));
        assert_eq!(lit("9223372036854775807"), Expr::Literal(Value::Int(i64::MAX)));
        assert_eq!(lit("-(-9223372036854775808)"), Expr::Literal(Value::Int(i64::MIN)));
        for bad in ["9223372036854775808", "-9223372036854775809", "18446744073709551616"] {
            assert!(parse_statement(&format!("SELECT A FROM T WHERE A = {bad}")).is_err(), "{bad}");
        }
    }

    #[test]
    fn errors_have_positions() {
        let err = parse_statement("SELECT FROM T").unwrap_err();
        assert!(err.pos > 0);
        assert!(parse_statement("SELECT A FROM").is_err());
        assert!(parse_statement("SELECT A T").is_err());
        assert!(parse_statement("").is_err());
        assert!(parse_statement("SELECT A FROM T WHERE A NOT 5").is_err());
        assert!(parse_statement("SELECT (SELECT A FROM T) FROM U").is_err());
    }

    #[test]
    fn count_star_only() {
        assert!(parse_statement("SELECT SUM(*) FROM T").is_err());
        let s = sel("SELECT COUNT(*) FROM T");
        let SelectList::Items(items) = &s.select else { panic!() };
        assert!(matches!(items[0].expr, Expr::Agg { func: AggFunc::Count, arg: None }));
    }
}
