/**
 * @file
 * Frontend tests: lexer token streams, parser structure, and
 * semantic-analysis acceptance/rejection.
 */

#include <gtest/gtest.h>

#include "lang/lexer.hh"
#include "lang/parser.hh"
#include "lang/sema.hh"
#include "support/logging.hh"

using namespace elag;
using namespace elag::lang;

namespace {

std::vector<Token>
lex(const std::string &src)
{
    return Lexer(src).tokenize();
}

std::unique_ptr<Program>
parseOk(const std::string &src, TypeTable &types)
{
    return parseSource(src, types);
}

void
analyzeOk(const std::string &src)
{
    TypeTable types;
    auto prog = parseSource(src, types);
    Sema sema(*prog, types);
    sema.analyze();
}

void
expectSemaError(const std::string &src)
{
    TypeTable types;
    auto prog = parseSource(src, types);
    Sema sema(*prog, types);
    EXPECT_THROW(sema.analyze(), FatalError);
}

} // namespace

TEST(Lexer, BasicTokens)
{
    auto toks = lex("int x = 42;");
    ASSERT_EQ(toks.size(), 6u); // int x = 42 ; EOF
    EXPECT_EQ(toks[0].kind, TokKind::KwInt);
    EXPECT_EQ(toks[1].kind, TokKind::Ident);
    EXPECT_EQ(toks[1].text, "x");
    EXPECT_EQ(toks[3].kind, TokKind::IntLit);
    EXPECT_EQ(toks[3].intValue, 42);
}

TEST(Lexer, HexLiterals)
{
    auto toks = lex("0xff 0X10");
    EXPECT_EQ(toks[0].intValue, 255);
    EXPECT_EQ(toks[1].intValue, 16);
}

TEST(Lexer, CharLiteralsAndEscapes)
{
    auto toks = lex("'a' '\\n' '\\0' '\\\\'");
    EXPECT_EQ(toks[0].intValue, 'a');
    EXPECT_EQ(toks[1].intValue, '\n');
    EXPECT_EQ(toks[2].intValue, 0);
    EXPECT_EQ(toks[3].intValue, '\\');
}

TEST(Lexer, CompoundOperators)
{
    auto toks = lex("<<= >>= <= >= == != && || ++ -- += <<");
    EXPECT_EQ(toks[0].kind, TokKind::ShlAssign);
    EXPECT_EQ(toks[1].kind, TokKind::ShrAssign);
    EXPECT_EQ(toks[2].kind, TokKind::Le);
    EXPECT_EQ(toks[3].kind, TokKind::Ge);
    EXPECT_EQ(toks[4].kind, TokKind::Eq);
    EXPECT_EQ(toks[5].kind, TokKind::Ne);
    EXPECT_EQ(toks[6].kind, TokKind::AmpAmp);
    EXPECT_EQ(toks[7].kind, TokKind::PipePipe);
    EXPECT_EQ(toks[8].kind, TokKind::PlusPlus);
    EXPECT_EQ(toks[9].kind, TokKind::MinusMinus);
    EXPECT_EQ(toks[10].kind, TokKind::PlusAssign);
    EXPECT_EQ(toks[11].kind, TokKind::Shl);
}

TEST(Lexer, CommentsAreSkipped)
{
    auto toks = lex("a // line comment\n /* block\n comment */ b");
    ASSERT_EQ(toks.size(), 3u);
    EXPECT_EQ(toks[0].text, "a");
    EXPECT_EQ(toks[1].text, "b");
}

TEST(Lexer, TracksLineNumbers)
{
    auto toks = lex("a\nb\n  c");
    EXPECT_EQ(toks[0].loc.line, 1);
    EXPECT_EQ(toks[1].loc.line, 2);
    EXPECT_EQ(toks[2].loc.line, 3);
    EXPECT_EQ(toks[2].loc.col, 3);
}

TEST(Lexer, ErrorsOnBadCharacter)
{
    EXPECT_THROW(lex("int $x;"), FatalError);
    EXPECT_THROW(lex("'"), FatalError);
    EXPECT_THROW(lex("/* unterminated"), FatalError);
}

TEST(Parser, FunctionWithParams)
{
    TypeTable types;
    auto prog = parseOk("int add(int a, int b) { return a + b; }",
                        types);
    ASSERT_EQ(prog->functions.size(), 1u);
    EXPECT_EQ(prog->functions[0]->name, "add");
    EXPECT_EQ(prog->functions[0]->params.size(), 2u);
}

TEST(Parser, GlobalArraysAndPointers)
{
    TypeTable types;
    auto prog = parseOk("int arr[10]; int **pp; char c;", types);
    ASSERT_EQ(prog->globals.size(), 3u);
    EXPECT_TRUE(prog->globals[0]->isArray);
    EXPECT_EQ(prog->globals[0]->arraySize, 10);
    EXPECT_TRUE(prog->globals[1]->type->isPtr());
    EXPECT_TRUE(prog->globals[1]->type->pointee->isPtr());
}

TEST(Parser, PrecedenceShapesTree)
{
    TypeTable types;
    auto prog =
        parseOk("int f() { return 1 + 2 * 3; }", types);
    const Stmt &ret = *prog->functions[0]->body->body[0];
    const Expr &e = *ret.expr;
    ASSERT_EQ(e.kind, ExprKind::Binary);
    EXPECT_EQ(e.binaryOp, BinaryOp::Add);
    EXPECT_EQ(e.rhs->binaryOp, BinaryOp::Mul);
}

TEST(Parser, CastVersusParenExpr)
{
    TypeTable types;
    auto prog = parseOk(
        "int f(int x) { int *p; p = (int*)x; return (x) + 1; }",
        types);
    SUCCEED();
}

TEST(Parser, ForLoopWithDeclInit)
{
    TypeTable types;
    auto prog = parseOk(
        "int f() { for (int i = 0; i < 4; i++) {} return 0; }", types);
    const Stmt &f = *prog->functions[0]->body->body[0];
    EXPECT_EQ(f.kind, StmtKind::For);
    EXPECT_EQ(f.forInit->kind, StmtKind::Decl);
    EXPECT_NE(f.forCond, nullptr);
    EXPECT_NE(f.forStep, nullptr);
}

TEST(Parser, DoWhile)
{
    TypeTable types;
    auto prog = parseOk(
        "int f() { int i = 0; do { i++; } while (i < 3); return i; }",
        types);
    EXPECT_EQ(prog->functions[0]->body->body[1]->kind,
              StmtKind::DoWhile);
}

TEST(Parser, TernaryIsRightAssociative)
{
    TypeTable types;
    auto prog = parseOk(
        "int f(int a) { return a ? 1 : a ? 2 : 3; }", types);
    const Expr &e = *prog->functions[0]->body->body[0]->expr;
    ASSERT_EQ(e.kind, ExprKind::Cond);
    EXPECT_EQ(e.third->kind, ExprKind::Cond);
}

TEST(Parser, SyntaxErrors)
{
    TypeTable types;
    EXPECT_THROW(parseOk("int f() { return 1 }", types), FatalError);
    EXPECT_THROW(parseOk("int f( { }", types), FatalError);
    EXPECT_THROW(parseOk("int a[0];", types), FatalError);
    EXPECT_THROW(parseOk("int f() { 3(); }", types), FatalError);
}

namespace {

std::string
repeat(const std::string &text, int n)
{
    std::string out;
    for (int i = 0; i < n; ++i)
        out += text;
    return out;
}

/** main() computing ((...(1)...)) inside @p n parentheses. */
std::string
nestedParens(int n)
{
    return "int main() { int x = " + repeat("(", n) + "1" +
           repeat(")", n) + "; print(x); return 0; }";
}

/** main() with @p n nested if blocks. */
std::string
nestedIfs(int n)
{
    return "int main() { int x = 1; " + repeat("if (x) { ", n) +
           "print(x); " + repeat("} ", n) + "return 0; }";
}

/** The message of the FatalError parsing @p src throws ("" if none). */
std::string
parseFailure(const std::string &src)
{
    TypeTable types;
    try {
        parseSource(src, types);
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(Parser, NestingBudgetRejectsDeepPrograms)
{
    const std::string too_deep = "nesting deeper than 1000 levels";
    // The shapes that used to overflow the stack in the parser, in
    // sema or in the tree's destructor: parentheses, blocks, and
    // chains of binary, postfix, assignment, unary and ?: operators.
    for (const std::string &src :
         {nestedParens(30000), nestedIfs(20000),
          "int main() { return 1" + repeat(" + 1", 100000) + "; }",
          "int main() { int x = 0; x" + repeat("++", 100000) +
              "; return x; }",
          "int main() { int x; " + repeat("x = ", 100000) +
              "1; return x; }",
          "int main() { return " + repeat("- ", 100000) + "1; }",
          "int main() { int x = 1; return " + repeat("x ? 1 : ", 100000) +
              "0; }"}) {
        std::string error = parseFailure(src);
        EXPECT_NE(error.find("parse error at 1:"), std::string::npos)
            << error;
        EXPECT_NE(error.find(too_deep), std::string::npos) << error;
    }
    // Each parenthesis opens two levels (an expression and its
    // operand), each if block two (the if and its block).
    EXPECT_EQ(parseFailure(nestedParens(490)), "");
    EXPECT_NE(parseFailure(nestedParens(510)).find(too_deep),
              std::string::npos);
    EXPECT_EQ(parseFailure(nestedIfs(490)), "");
    EXPECT_NE(parseFailure(nestedIfs(510)).find(too_deep),
              std::string::npos);
    // A long flat program is not deep.
    EXPECT_EQ(parseFailure("int main() { int x = 0; " +
                           repeat("x = x + 1; ", 20000) + "return x; }"),
              "");
}

TEST(Sema, AcceptsWellTypedProgram)
{
    analyzeOk(R"(
        int g;
        int arr[4];
        int helper(int *p, char c) { return p[0] + c; }
        int main() {
            int x = 3;
            arr[x & 3] = helper(&g, 'a');
            return arr[0];
        }
    )");
}

TEST(Sema, RequiresMain)
{
    expectSemaError("int foo() { return 0; }");
}

TEST(Sema, MainMustReturnIntWithNoParams)
{
    expectSemaError("void main() { }");
    expectSemaError("int main(int x) { return x; }");
}

TEST(Sema, RejectsUndeclaredIdentifier)
{
    expectSemaError("int main() { return missing; }");
}

TEST(Sema, RejectsRedefinition)
{
    expectSemaError("int main() { int a; int a; return 0; }");
    expectSemaError("int f() { return 0; } int f() { return 1; } "
                    "int main() { return 0; }");
}

TEST(Sema, RejectsCallArityMismatch)
{
    expectSemaError(
        "int f(int a) { return a; } int main() { return f(); }");
}

TEST(Sema, RejectsAssignToRValue)
{
    expectSemaError("int main() { 3 = 4; return 0; }");
    expectSemaError("int a[3]; int main() { a = (int*)0; return 0; }");
}

TEST(Sema, RejectsDerefOfNonPointer)
{
    expectSemaError("int main() { int x; return *x; }");
}

TEST(Sema, PointerAssignmentNeedsCast)
{
    expectSemaError(
        "int main() { int *p; int x; p = x; return 0; }");
    analyzeOk("int main() { int *p; int x; p = (int*)x; return 0; }");
}

TEST(Sema, NullPointerConstantIsAllowed)
{
    analyzeOk("int main() { int *p = 0; if (p == 0) return 1; "
              "return 0; }");
}

TEST(Sema, BreakOutsideLoopRejected)
{
    expectSemaError("int main() { break; return 0; }");
    expectSemaError("int main() { continue; return 0; }");
}

TEST(Sema, ReturnTypeChecked)
{
    expectSemaError(
        "void f() { return 3; } int main() { f(); return 0; }");
    expectSemaError(
        "int f() { return; } int main() { return f(); }");
}

TEST(Sema, GlobalInitMustBeConstant)
{
    analyzeOk("int g = 3 * 4 + 1; int main() { return g; }");
    expectSemaError("int h; int g = h + 1; int main() { return g; }");
}

TEST(Sema, GlobalLayoutIsAligned)
{
    TypeTable types;
    auto prog = parseSource(
        "char c; int i; char d; int j; int main() { return 0; }",
        types);
    Sema sema(*prog, types);
    sema.analyze();
    EXPECT_EQ(prog->globals[0]->globalOffset, 0);
    EXPECT_EQ(prog->globals[1]->globalOffset, 4); // int aligned
    EXPECT_EQ(prog->globals[2]->globalOffset, 8);
    EXPECT_EQ(prog->globals[3]->globalOffset, 12);
    EXPECT_GE(sema.globalSize(), 16);
}

TEST(Sema, GlobalDataMustFitInMemory)
{
    // 64 MiB of memory above the global base holds the segment and the
    // heap-pointer word after it, rounded to 8 bytes.
    analyzeOk("int a[16777214]; int main() { return a[0]; }");
    for (const char *src :
         {"int a[16777215]; int main() { return a[0]; }",
          "int a[2000000000]; int main() { return a[0]; }",
          "char c[60000000]; int a[2000000]; int main() { return 0; }"}) {
        TypeTable types;
        auto prog = parseSource(src, types);
        Sema sema(*prog, types);
        try {
            sema.analyze();
            ADD_FAILURE() << "accepted: " << src;
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("global data needs"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(Sema, PointerArithmeticTyping)
{
    analyzeOk(R"(
        int main() {
            int buf[8];
            int *p = buf;
            int *q = p + 3;
            int d = q - p;
            return d;
        }
    )");
    expectSemaError(R"(
        int main() {
            int *p = 0;
            char *q = 0;
            return p - q;
        }
    )");
}

TEST(Sema, AddressOfMarksVariable)
{
    TypeTable types;
    auto prog = parseSource(
        "int main() { int x; int *p = &x; return *p; }", types);
    Sema sema(*prog, types);
    sema.analyze();
    // The local 'x' must be flagged address-taken.
    const Stmt &decl = *prog->functions.front()->body->body[0];
    EXPECT_TRUE(decl.decl->addressTaken);
}
